package pneuma_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pneuma"
	"pneuma/internal/leakcheck"
)

// serviceQuestion is a benchmark question that triggers the full
// conductor pipeline (retrieve → define → materialize → execute) without
// tripping knowledge capture, so concurrent sessions stay independent.
const serviceQuestion = "What is the average organic matter percentage for soil samples in the Malta region? Round your answer to 4 decimal places."

// interpolatingQuestion materializes from the same soil_samples table as
// serviceQuestion, through an interpolate step: it replaces cells in a table
// whose rows are the corpus table's own, while the other sessions read them.
const interpolatingQuestion = "What is the average Potassium concentration for soil samples in the Sicily region between 1920 and 1980? Assume that Potassium is linearly interpolated between samples. Round your answer to 4 decimal places."

// TestServiceConcurrentSessions drives N sessions through one Service
// simultaneously (run under -race via `make race-smoke`): every session
// must get the same deterministic reply a solo session gets, and the
// per-session meters must sum exactly to the service-wide meter. The
// sessions alternate between two questions over one corpus table, so
// materialized tables that share its rows are built and queried side by side.
func TestServiceConcurrentSessions(t *testing.T) {
	defer leakcheck.Check(t)()
	corpus := pneuma.ArchaeologyDataset()

	// Reference runs: each question in one session on its own Service.
	questions := []string{serviceQuestion, interpolatingQuestion}
	refReplies := make([]pneuma.Reply, len(questions))
	for qi, q := range questions {
		ref, err := pneuma.New(corpus)
		if err != nil {
			t.Fatal(err)
		}
		refReplies[qi], err = ref.NewSession("ref").Send(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if refReplies[qi].Answer == "" {
			t.Fatalf("reference run %d returned no answer: %s", qi, refReplies[qi].Message)
		}
		if err := ref.Close(); err != nil {
			t.Fatal(err)
		}
	}

	svc, err := pneuma.New(corpus, pneuma.WithMaxConcurrent(4))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	sessions := 12
	if testing.Short() {
		// The -race smoke gate runs on every verify; four sessions still
		// oversubscribe the width-4 scheduler.
		sessions = 6
	}
	replies := make([]pneuma.Reply, sessions)
	errs := make([]error, sessions)
	sess := make([]*pneuma.ServiceSession, sessions)
	for i := range sess {
		sess[i] = svc.NewSession(fmt.Sprintf("user-%d", i))
	}
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i], errs[i] = sess[i].Send(context.Background(), questions[i%len(questions)])
		}(i)
	}
	wg.Wait()

	for i := 0; i < sessions; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		refReply := refReplies[i%len(questions)]
		if replies[i].Answer != refReply.Answer {
			t.Errorf("session %d answer = %q, want %q (deterministic replies per session)",
				i, replies[i].Answer, refReply.Answer)
		}
		if replies[i].Message != refReply.Message {
			t.Errorf("session %d message diverged from the solo run", i)
		}
	}

	// Per-session metering: session meters must sum exactly to the
	// service totals (Table-2 accounting under concurrency).
	total := svc.Meter().Snapshot()
	var sumIn, sumOut, sumCalls int
	for i := 0; i < sessions; i++ {
		m := sess[i].Meter().Snapshot()
		if m.Calls == 0 {
			t.Errorf("session %d recorded no calls on its own meter", i)
		}
		sumIn += m.Total.InTokens
		sumOut += m.Total.OutTokens
		sumCalls += m.Calls
	}
	if sumIn != total.Total.InTokens || sumOut != total.Total.OutTokens || sumCalls != total.Calls {
		t.Errorf("session meters sum to (in=%d out=%d calls=%d), service meter has (in=%d out=%d calls=%d)",
			sumIn, sumOut, sumCalls, total.Total.InTokens, total.Total.OutTokens, total.Calls)
	}
}

// TestServiceColdConcurrentFirstTurns starts four sessions at once on a
// Service whose corpus tables nothing has profiled yet, so their first
// planning calls all profile the same shared tables at the same moment (run
// under -race via `make race-smoke`). The reference reply comes from a
// different corpus instance: profiling this one first would warm the very
// cache the sessions are meant to find empty.
func TestServiceColdConcurrentFirstTurns(t *testing.T) {
	defer leakcheck.Check(t)()
	ref, err := pneuma.New(pneuma.ArchaeologyDataset())
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.NewSession("ref").Send(context.Background(), serviceQuestion)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	if want.Answer == "" {
		t.Fatalf("reference run returned no answer: %s", want.Message)
	}

	svc, err := pneuma.New(pneuma.ArchaeologyDataset(), pneuma.WithMaxConcurrent(4))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	const sessions = 4
	replies := make([]pneuma.Reply, sessions)
	errs := make([]error, sessions)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		sess := svc.NewSession(fmt.Sprintf("user-%d", i))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			replies[i], errs[i] = sess.Send(context.Background(), serviceQuestion)
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < sessions; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if replies[i].Answer != want.Answer || replies[i].Message != want.Message {
			t.Errorf("session %d replied %q (%q), the solo run on another corpus %q (%q)",
				i, replies[i].Answer, replies[i].Message, want.Answer, want.Message)
		}
	}
}

// TestServiceSendCanceled: a canceled request context surfaces as the
// typed ErrCanceled (and context.Canceled stays in the chain).
func TestServiceSendCanceled(t *testing.T) {
	defer leakcheck.Check(t)()
	svc, err := pneuma.New(pneuma.ArchaeologyDataset())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sess := svc.NewSession("cancel-user")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = sess.Send(ctx, serviceQuestion)
	if !errors.Is(err, pneuma.ErrCanceled) {
		t.Fatalf("Send = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Send = %v, want context.Canceled in the chain", err)
	}
	// The session survives a canceled turn.
	reply, err := sess.Send(context.Background(), serviceQuestion)
	if err != nil || reply.Answer == "" {
		t.Fatalf("post-cancel Send = %v, %v", reply, err)
	}
}

// TestServiceTypedErrors covers the ErrBadQuery and ErrClosed corners of
// the vocabulary, plus errors.As extraction of the Op.
func TestServiceTypedErrors(t *testing.T) {
	svc, err := pneuma.New(pneuma.ArchaeologyDataset())
	if err != nil {
		t.Fatal(err)
	}
	sess := svc.NewSession("typed-errors")

	if _, err := sess.Send(context.Background(), "   "); !errors.Is(err, pneuma.ErrBadQuery) {
		t.Fatalf("empty Send = %v, want ErrBadQuery", err)
	}
	if _, err := svc.Search(context.Background(), "", 3); !errors.Is(err, pneuma.ErrBadQuery) {
		t.Fatalf("empty Search = %v, want ErrBadQuery", err)
	}

	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("Close must be idempotent, got %v", err)
	}
	_, err = sess.Send(context.Background(), serviceQuestion)
	if !errors.Is(err, pneuma.ErrClosed) {
		t.Fatalf("Send after Close = %v, want ErrClosed", err)
	}
	var pe *pneuma.Error
	if !errors.As(err, &pe) || pe.Code != pneuma.ErrClosed || pe.Op == "" {
		t.Fatalf("errors.As gave %+v", pe)
	}
	if _, err := svc.Search(context.Background(), "soil", 3); !errors.Is(err, pneuma.ErrClosed) {
		t.Fatalf("Search after Close = %v, want ErrClosed", err)
	}
}

// TestServiceSearch exercises request-scoped retrieval through the
// scheduler, concurrently.
func TestServiceSearch(t *testing.T) {
	defer leakcheck.Check(t)()
	svc, err := pneuma.New(pneuma.ArchaeologyDataset(), pneuma.WithMaxConcurrent(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	want, err := svc.Search(context.Background(), "soil chemistry samples", 3)
	if err != nil || len(want) == 0 {
		t.Fatalf("Search = %v, %v", want, err)
	}
	const n = 16
	var wg sync.WaitGroup
	got := make([][]pneuma.Document, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = svc.Search(context.Background(), "soil chemistry samples", 3)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("concurrent search %d: %v", i, errs[i])
		}
		if len(got[i]) != len(want) {
			t.Fatalf("concurrent search %d returned %d docs, want %d", i, len(got[i]), len(want))
		}
		for j := range want {
			if got[i][j].ID != want[j].ID {
				t.Errorf("concurrent search %d rank %d = %s, want %s (determinism)", i, j, got[i][j].ID, want[j].ID)
			}
		}
	}
}

// TestServiceKnowledgeDedupe: repeating the identical knowledge-bearing
// message — within one session or across sessions — must store exactly one
// note (the Session.Send dedupe satellite).
func TestServiceKnowledgeDedupe(t *testing.T) {
	kb := pneuma.NewKnowledgeDB()
	svc, err := pneuma.New(pneuma.ArchaeologyDataset(), pneuma.WithKnowledge(kb))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	const externalized = "Note that potassium values should be interpolated between samples when missing."

	alice := svc.NewSession("alice")
	for i := 0; i < 3; i++ {
		if _, err := alice.Send(context.Background(), externalized); err != nil {
			t.Fatal(err)
		}
	}
	if kb.Len() != 1 {
		t.Fatalf("repeated identical message saved %d notes, want 1", kb.Len())
	}
	// A different user repeating the same assumption still saves nothing
	// new — but their session surfaces the shared note.
	bob := svc.NewSession("bob")
	if _, err := bob.Send(context.Background(), externalized); err != nil {
		t.Fatal(err)
	}
	if kb.Len() != 1 {
		t.Fatalf("cross-session duplicate saved %d notes, want 1", kb.Len())
	}
	if len(bob.Session().KnowledgeNotes) == 0 {
		t.Error("bob's session did not surface the deduplicated note")
	}
	// Different content still saves.
	if _, err := bob.Send(context.Background(), "Assume tariffs are computed relative to the previous active rate."); err != nil {
		t.Fatal(err)
	}
	if kb.Len() != 2 {
		t.Fatalf("distinct knowledge saved %d notes, want 2", kb.Len())
	}
}

// TestIndexOptionsReachRetriever guards the one failure a forwarding layer
// has — a knob silently dropped: every index option pneuma exports is
// applied to a 20-table Service and its effect read back through the
// accessors the Service already has.
func TestIndexOptionsReachRetriever(t *testing.T) {
	corpus := pneuma.SyntheticDataset(20)
	names := make([]string, 0, len(corpus))
	for name := range corpus {
		names = append(names, name)
	}
	// fsyncsMoveOnAdd: on BackendDisk an AddTables that is never flushed
	// has fsynced the shard it wrote by the time it returns.
	fsyncsMoveOnAdd := func(t *testing.T, svc *pneuma.Service) {
		before := svc.Stats().Tables.Fsyncs
		extra, err := pneuma.ReadCSV("late_arrival", strings.NewReader("a,b\n1,x\n2,y\n"))
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.AddTables(context.Background(), extra); err != nil {
			t.Fatal(err)
		}
		if got := svc.Stats().Tables.Fsyncs - before; got != 1 {
			t.Fatalf("an unflushed one-table AddTables made %d fsyncs, want 1", got)
		}
	}
	// segmentsAfterChurn deletes 15 of the 20 tables, flushes, and reports
	// whether the segment files shrank (compaction ran) or grew (the
	// tombstones were appended and nothing was rewritten).
	segmentsAfterChurn := func(t *testing.T, svc *pneuma.Service, dir string) (shrank bool) {
		segBytes := func() (n int64) {
			segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
			if err != nil || len(segs) == 0 {
				t.Fatalf("segments in %s: %v, %v", dir, segs, err)
			}
			for _, seg := range segs {
				fi, err := os.Stat(seg)
				if err != nil {
					t.Fatal(err)
				}
				n += fi.Size()
			}
			return n
		}
		before := segBytes()
		if n, err := svc.DeleteTables(context.Background(), names[:15]...); err != nil || n != 15 {
			t.Fatalf("DeleteTables = %d, %v", n, err)
		}
		if err := svc.Seeker().IR().Tables.Flush(); err != nil {
			t.Fatal(err)
		}
		return segBytes() < before
	}

	for _, tc := range []struct {
		name string
		// disk opens the index on BackendDisk under the subtest's TempDir.
		disk  bool
		opt   pneuma.Option
		check func(t *testing.T, svc *pneuma.Service, dir string)
	}{
		{"WithShards", false, pneuma.WithShards(3),
			func(t *testing.T, svc *pneuma.Service, _ string) {
				if got := svc.Seeker().IR().Tables.NumShards(); got != 3 {
					t.Errorf("NumShards = %d, want 3", got)
				}
			}},
		{"WithBackend+WithIndexDir", true, nil,
			func(t *testing.T, svc *pneuma.Service, dir string) {
				ret := svc.Seeker().IR().Tables
				if ret.Backend() != pneuma.BackendDisk || ret.Dir() != dir {
					t.Errorf("Backend, Dir = %q, %q; want %q, %q", ret.Backend(), ret.Dir(), pneuma.BackendDisk, dir)
				}
				fsyncsMoveOnAdd(t, svc)
				// Disk churn past the compaction ratio rewrites the
				// segments.
				if !segmentsAfterChurn(t, svc, dir) {
					t.Error("default compaction ratio did not shrink the segments")
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var opts []pneuma.Option
			if tc.disk {
				opts = append(opts, pneuma.WithBackend(pneuma.BackendDisk), pneuma.WithIndexDir(dir))
			}
			if tc.opt != nil {
				opts = append(opts, tc.opt)
			}
			svc, err := pneuma.New(corpus, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			if got := svc.Stats().Tables.Documents; got != len(corpus) {
				t.Fatalf("indexed %d tables, want %d", got, len(corpus))
			}
			if tc.check != nil {
				tc.check(t, svc, dir)
			}
		})
	}
}
