package retriever

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pneuma/internal/docs"
)

// compactionOff is a compaction ratio no segment can reach: the dead
// fraction never exceeds 1.
const compactionOff = 2

// withCompactRatio overrides DefaultCompactionRatio for tests that need
// compaction off (compactionOff) or triggered by any dead record.
func withCompactRatio(ratio float64) Option {
	return func(r *Retriever) { r.compactRatio = ratio }
}

// waitForCompactions polls until the retriever has completed at least n
// compaction runs, failing the test after a generous deadline.
func waitForCompactions(t *testing.T, r *Retriever, n uint64) CompactionStats {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		cs := r.CompactionStats()
		if cs.Runs >= n {
			return cs
		}
		if time.Now().After(deadline) {
			t.Fatalf("no compaction after 10s: %+v", cs)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestBackgroundCompactionStats verifies the Flush-triggered background
// path reports its work: deleting half the corpus and flushing must
// record at least one completed run with a positive reclaim count, and
// the memory backend must stay all-zero.
func TestBackgroundCompactionStats(t *testing.T) {
	dir := t.TempDir()
	tables := corpusSlice(64)
	r, err := Open(WithShards(2), WithBackend(Disk), WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.IndexTables(context.Background(), tables); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if cs := r.CompactionStats(); cs.Runs != 0 {
		t.Fatalf("compaction ran before any deletes: %+v", cs)
	}
	for _, tb := range tables[:32] {
		deleteOne(r, "table:"+tb.Schema.Name)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	cs := r.CompactionStats()
	if cs.Runs == 0 || cs.Reclaimed <= 0 {
		t.Fatalf("background compaction left no trace: %+v", cs)
	}

	mem := New(WithShards(2))
	defer mem.Close()
	if err := mem.IndexTables(context.Background(), tables); err != nil {
		t.Fatal(err)
	}
	if cs := mem.CompactionStats(); cs != (CompactionStats{}) {
		t.Fatalf("memory backend reports compaction stats: %+v", cs)
	}
}

// TestBackgroundCompactionProactive verifies a compaction starts from the
// write path alone: once deletes push the dead fraction past the
// threshold, the compactor rewrites the segment without any Flush call.
func TestBackgroundCompactionProactive(t *testing.T) {
	dir := t.TempDir()
	tables := corpusSlice(64)
	r, err := Open(WithShards(1), WithBackend(Disk), WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.IndexTables(context.Background(), tables); err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables[:40] {
		if !deleteOne(r, "table:"+tb.Schema.Name) {
			t.Fatalf("delete %s failed", tb.Schema.Name)
		}
	}
	waitForCompactions(t, r, 1)
	if r.Len() != 24 {
		t.Fatalf("Len = %d, want 24", r.Len())
	}
	// The proactively compacted shard must still equal a fresh index over
	// the survivors, live and across a reopen.
	fresh := New(WithShards(1))
	defer fresh.Close()
	if err := fresh.IndexTables(context.Background(), tables[40:]); err != nil {
		t.Fatal(err)
	}
	for _, q := range parityQueries {
		assertSameResults(t, "proactive "+q, mustSearch(t, fresh, q, 10), mustSearch(t, r, q, 10))
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(WithBackend(Disk), WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, q := range parityQueries {
		assertSameResults(t, "proactive+reopened "+q, mustSearch(t, fresh, q, 10), mustSearch(t, re, q, 10))
	}
}

// TestBackgroundCompactionUnderIngest is the live-traffic contract: a
// compaction committing while a writer streams new documents must fold
// every concurrent write into the rewritten state — the result equals
// indexing the survivors and then the new documents in order, exactly as
// if the compaction had never happened. With one shard and the catch-up
// replay in play, this exercises pin, shadow build, catch-up and commit
// against a moving segment.
func TestBackgroundCompactionUnderIngest(t *testing.T) {
	dir := t.TempDir()
	tables := corpusSlice(64)
	r, err := Open(WithShards(1), WithBackend(Disk), WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()
	if err := r.IndexTables(ctx, tables); err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables[:40] {
		if !deleteOne(r, "table:"+tb.Schema.Name) {
			t.Fatalf("delete %s failed", tb.Schema.Name)
		}
	}
	// The deletes above tripped the threshold, so the rewrite is now
	// racing this paced ingest stream.
	extra := make([]docs.Document, 30)
	for i := range extra {
		extra[i] = docs.Document{
			ID:      fmt.Sprintf("live:%03d", i),
			Title:   fmt.Sprintf("live stream doc %d", i),
			Content: fmt.Sprintf("streamed document %d arriving during segment compaction with freight terminal data", i),
		}
		if err := indexOne(r, ctx, extra[i]); err != nil {
			t.Fatal(err)
		}
		time.Sleep(200 * time.Microsecond)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	cs := waitForCompactions(t, r, 1)
	if cs.Reclaimed <= 0 {
		t.Fatalf("compaction reclaimed nothing: %+v", cs)
	}
	if r.Len() != 24+len(extra) {
		t.Fatalf("Len = %d, want %d", r.Len(), 24+len(extra))
	}

	// Replay-equivalence oracle: survivors in their original insertion
	// order, then the streamed documents in append order.
	fresh := New(WithShards(1))
	defer fresh.Close()
	if err := fresh.IndexTables(ctx, tables[40:]); err != nil {
		t.Fatal(err)
	}
	for _, d := range extra {
		if err := indexOne(fresh, ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range append([]string{"streamed document freight"}, parityQueries...) {
		assertSameResults(t, "under-ingest "+q, mustSearch(t, fresh, q, 10), mustSearch(t, r, q, 10))
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(WithBackend(Disk), WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, q := range parityQueries {
		assertSameResults(t, "under-ingest+reopened "+q, mustSearch(t, fresh, q, 10), mustSearch(t, re, q, 10))
	}
}

// TestCloseCompactsDueShard closes an index whose compaction is due
// without calling Flush. Close must hand the rewrite to the still-running
// compactor and wait for it: the segment shrinks, its header generation
// advances, and a reopen answers like a fresh index over the survivors.
// Two ways to be due when Close lands:
//
//   - deleted-this-session: the deletes crossed the threshold, so the
//     write path already scheduled the rewrite and Close races it.
//   - due-at-open: the deletes were written with compaction off and the
//     index reopened at the default ratio, so nothing has scheduled a
//     rewrite and only Close's hand-off can run one.
func TestCloseCompactsDueShard(t *testing.T) {
	for _, atOpen := range []bool{false, true} {
		name := "deleted-this-session"
		if atOpen {
			name = "due-at-open"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			seg := filepath.Join(dir, "shard-0000.seg")
			opts := []Option{WithShards(1), WithBackend(Disk), WithDir(dir)}
			tables := corpusSlice(64)
			first := opts
			if atOpen {
				first = append(first[:len(first):len(first)], withCompactRatio(compactionOff))
			}
			r, err := Open(first...)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.IndexTables(context.Background(), tables); err != nil {
				t.Fatal(err)
			}
			if err := r.Flush(); err != nil {
				t.Fatal(err)
			}
			before := totalSize(t, []string{seg})
			genBefore := segGeneration(t, seg)
			ids := make([]string, 40)
			for i, tb := range tables[:40] {
				ids[i] = "table:" + tb.Schema.Name
			}
			if n := r.DeleteDocuments(ids); n != 40 {
				t.Fatalf("deleted %d, want 40", n)
			}
			if atOpen {
				if err := r.Close(); err != nil {
					t.Fatal(err)
				}
				if after := totalSize(t, []string{seg}); after <= before {
					t.Fatalf("segment compacted with compaction off: %d -> %d bytes", before, after)
				}
				if r, err = Open(opts...); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			if after := totalSize(t, []string{seg}); after >= before {
				t.Fatalf("Close left the segment uncompacted: %d -> %d bytes", before, after)
			}
			if gen := segGeneration(t, seg); gen <= genBefore {
				t.Fatalf("segment generation %d -> %d, want an advance", genBefore, gen)
			}

			fresh := New(WithShards(1))
			defer fresh.Close()
			if err := fresh.IndexTables(context.Background(), tables[40:]); err != nil {
				t.Fatal(err)
			}
			re, err := Open(WithBackend(Disk), WithDir(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.Len() != 24 {
				t.Fatalf("reopened Len = %d, want 24", re.Len())
			}
			for _, q := range parityQueries {
				assertSameResults(t, "closed+reopened "+q, mustSearch(t, fresh, q, 10), mustSearch(t, re, q, 10))
			}
		})
	}
}

// segGeneration reads the generation from a segment file's header.
func segGeneration(t *testing.T, path string) uint64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	gen, err := readSegHeader(f)
	if err != nil {
		t.Fatal(err)
	}
	return gen
}
