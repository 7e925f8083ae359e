package retriever

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pneuma/internal/docs"
	"pneuma/internal/leakcheck"
	"pneuma/internal/pnerr"
)

// Lifecycle leak coverage: every goroutine the retriever starts — the
// compactor, embedding workers, shard writers, search fan-out
// — must be gone once Close returns, including when Close races live
// readers and writers and when an ingest is abandoned mid-stream.

// TestDiskCompactorCloseNoLeak pins the compactor's lifecycle: its
// goroutine runs for the retriever's whole life, and Close must stop it
// after waiting out the rewrites the deletes below made due — the leak
// guard proves it exited, a reopen proves the rewrites kept every
// surviving document.
func TestDiskCompactorCloseNoLeak(t *testing.T) {
	defer leakcheck.Check(t)()
	dir := t.TempDir()
	r, err := Open(WithShards(4), WithBackend(Disk), WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	ds := make([]docs.Document, 40)
	ids := make([]string, 30)
	for i := range ds {
		ds[i] = churnDoc(i)
		if i < len(ids) {
			ids[i] = ds[i].ID
		}
	}
	if err := r.IndexDocuments(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	if n := r.DeleteDocuments(ids); n != len(ids) {
		t.Fatalf("deleted %d, want %d", n, len(ids))
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if cs := r.CompactionStats(); cs.Runs == 0 {
		t.Fatalf("Close returned with no compaction run: %+v", cs)
	}

	re, err := Open(WithShards(4), WithBackend(Disk), WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(ds)-len(ids) {
		t.Fatalf("reopen Len = %d, want %d", re.Len(), len(ds)-len(ids))
	}
}

// TestDiskConcurrentCloseUnderLoad closes a disk-backed retriever while
// reader and writer goroutines are still hammering it. Close must wait for every in-flight call to drain, every later
// call must fail with the typed ErrClosed — never a crash on a released
// backend — and no goroutine may outlive the retriever.
func TestDiskConcurrentCloseUnderLoad(t *testing.T) {
	defer leakcheck.Check(t)()
	r, err := Open(WithShards(4), WithBackend(Disk), WithDir(t.TempDir()),
		withCompactRatio(compactionOff))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	seed := make([]docs.Document, 60)
	for i := range seed {
		seed[i] = churnDoc(i)
	}
	if err := r.IndexDocuments(ctx, seed); err != nil {
		t.Fatal(err)
	}

	// okOrClosed accepts the two legal outcomes for a call racing Close.
	okOrClosed := func(who string, err error) {
		if err != nil && !errors.Is(err, pnerr.ErrClosed) {
			t.Errorf("%s: %v", who, err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; ; i++ {
				_, err := r.Search(ctx, churnQueries[rng.Intn(len(churnQueries))], 5)
				if errors.Is(err, pnerr.ErrClosed) {
					return
				}
				okOrClosed(fmt.Sprintf("reader %d", g), err)
				r.Document(fmt.Sprintf("doc-%05d", rng.Intn(100)))
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := len(seed); ; n++ {
			err := r.IndexDocuments(ctx, []docs.Document{churnDoc(n)})
			if errors.Is(err, pnerr.ErrClosed) {
				return
			}
			okOrClosed("writer", err)
			if n%3 == 0 {
				r.DeleteDocuments([]string{churnDoc(n - 2).ID})
			}
		}
	}()

	time.Sleep(20 * time.Millisecond) // let the load reach steady state
	if err := r.Close(); err != nil {
		t.Fatalf("Close under load: %v", err)
	}
	wg.Wait()
	if _, err := r.Search(ctx, "anything", 3); !errors.Is(err, pnerr.ErrClosed) {
		t.Fatalf("Search after Close = %v, want ErrClosed", err)
	}
}

// TestIndexDocumentsCanceledMidIngest cancels a bulk ingest after the
// first batches have already landed (not before it starts, which
// cancel_test.go covers). The call must return the typed ErrCanceled,
// the embedding workers and shard writers must all exit, and everything
// indexed before the cut must already be durable — a crash copy taken
// right after the call holds it — and searchable after a clean Close and
// reopen.
func TestIndexDocumentsCanceledMidIngest(t *testing.T) {
	defer leakcheck.Check(t)()
	dir := t.TempDir()
	r, err := Open(WithShards(4), WithBackend(Disk), WithDir(dir),
		withCompactRatio(compactionOff))
	if err != nil {
		t.Fatal(err)
	}
	big := make([]docs.Document, 4096)
	for i := range big {
		big[i] = churnDoc(i)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Fire once the ingest is visibly under way, so the cancellation
		// lands between batches rather than before the first one.
		for r.Len() == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
	}()
	err = r.IndexDocuments(ctx, big)
	if err == nil {
		t.Skip("ingest outran the mid-stream cancel; nothing to assert")
	}
	if !errors.Is(err, pnerr.ErrCanceled) {
		t.Fatalf("ingest err = %v, want ErrCanceled", err)
	}
	got := r.Len()
	if got == 0 || got >= len(big) {
		t.Fatalf("Len = %d after mid-ingest cancel, want partial (0, %d)", got, len(big))
	}
	crash, err := Open(WithBackend(Disk), WithDir(crashCopy(t, dir)))
	if err != nil {
		t.Fatal(err)
	}
	if crash.Len() != got {
		t.Fatalf("crash copy after cancel holds %d documents, want %d", crash.Len(), got)
	}
	if err := crash.Close(); err != nil {
		t.Fatal(err)
	}

	// The retriever survives the abandoned ingest: later writes work and
	// the partial state is durable across Close/reopen.
	if err := r.IndexDocuments(context.Background(), []docs.Document{churnDoc(len(big))}); err != nil {
		t.Fatal(err)
	}
	want := r.Len()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(WithShards(4), WithBackend(Disk), WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != want {
		t.Fatalf("reopen Len = %d, want %d", re.Len(), want)
	}
	if res, err := re.Search(context.Background(), "river nitrate readings", 5); err != nil || len(res) == 0 {
		t.Fatalf("post-reopen Search = %v, %v", res, err)
	}
}
