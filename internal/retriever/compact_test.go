package retriever

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"pneuma/internal/bm25"
	"pneuma/internal/docs"
	"pneuma/internal/embed"
	"pneuma/internal/kramabench"
)

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
		r.Delete("table:" + tb.Schema.Name)
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
// threshold, the flusher rewrites the segment without any Flush call.
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
		if !r.Delete("table:" + tb.Schema.Name) {
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
	r, err := Open(WithShards(1), WithBackend(Disk), WithDir(dir), WithSyncBytes(1024))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()
	if err := r.IndexTables(ctx, tables); err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables[:40] {
		if !r.Delete("table:" + tb.Schema.Name) {
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
		if err := r.IndexDocument(ctx, extra[i]); err != nil {
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
		if err := fresh.IndexDocument(ctx, d); err != nil {
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

// TestInlineCompactionMode drives a disk shard opened without a
// group-commit coordinator — the inline path, which is also Close's once
// the flusher has stopped: Flush rewrites the segment under the caller's
// lock, the stall metric records the whole rewrite, and a reopen answers
// like a fresh index over the survivors.
func TestInlineCompactionMode(t *testing.T) {
	dir := t.TempDir()
	// Lay out a one-shard index (manifest, lock released), then drive the
	// shard's backend directly.
	r, err := Open(WithShards(1), WithBackend(Disk), WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	emb := embed.New()
	seg := filepath.Join(dir, "shard-0000.seg")
	b, err := openDiskBackend(seg, filepath.Join(dir, "shard-0000.snap"), emb.Dim(), hnswSeed, bm25.NewStats(), 0,
		diskKnobs{compactRatio: DefaultCompactionRatio})
	if err != nil {
		t.Fatal(err)
	}
	// Name order is the order Retriever.IndexTables inserts in, so the
	// survivors below replay in the fresh oracle's order.
	tables := kramabench.SyntheticSlice(32)
	for _, tb := range tables {
		d := docs.TableDocument(tb)
		if err := b.Index(d, emb.Embed(d.Content)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	before := totalSize(t, []string{seg})
	for _, tb := range tables[:16] {
		if !b.Delete("table:" + tb.Schema.Name) {
			t.Fatalf("delete %s failed", tb.Schema.Name)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	after := totalSize(t, []string{seg})
	if after > before*6/10 {
		t.Fatalf("inline compaction did not shrink segment: %d -> %d bytes", before, after)
	}
	if b.compactRuns == 0 || b.compactReclaim <= 0 || b.compactMaxStall <= 0 {
		t.Fatalf("inline compaction stats incomplete: runs %d, reclaimed %d, max stall %v",
			b.compactRuns, b.compactReclaim, b.compactMaxStall)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	fresh := New(WithShards(1))
	defer fresh.Close()
	if err := fresh.IndexTables(context.Background(), tables[16:]); err != nil {
		t.Fatal(err)
	}
	re, err := Open(WithBackend(Disk), WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, q := range parityQueries {
		assertSameResults(t, "inline+reopened "+q, mustSearch(t, fresh, q, 10), mustSearch(t, re, q, 10))
	}
}
