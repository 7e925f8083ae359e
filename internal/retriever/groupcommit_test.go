package retriever

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"pneuma/internal/docs"
)

// TestGroupCommitBatchesFsyncs is the group-commit win: many writers,
// each record individually durable within the latency bound, must share
// fsyncs instead of paying one each. An inline fsync per record would
// issue >= one per record; under WithSyncBytes(1), which trips on every
// record, the batched flusher must come in well under that on a bulk
// ingest.
func TestGroupCommitBatchesFsyncs(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(WithShards(4), WithBackend(Disk), WithDir(dir), WithSyncBytes(1))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	tables := corpusSlice(200)
	if err := r.IndexTables(context.Background(), tables); err != nil {
		t.Fatal(err)
	}
	waitSynced(t, r)
	syncs := r.Fsyncs()
	if syncs == 0 {
		t.Fatal("no fsyncs issued despite an active sync policy")
	}
	if syncs >= uint64(len(tables)) {
		t.Fatalf("%d fsyncs for %d records: group commit is not batching", syncs, len(tables))
	}
	t.Logf("%d records durable with %d fsyncs", len(tables), syncs)
}

// BenchmarkGroupCommitIngest measures a multi-writer durable ingest under
// the group-commit flusher and reports fsyncs per record alongside the
// usual time/op. An inline fsync per record costs exactly 1.0
// fsyncs/record by construction; the batched flusher holds
// the same durability bound (every acknowledged record synced within the
// latency window) at a fraction of that — the reported metric is the
// group-commit win.
func BenchmarkGroupCommitIngest(b *testing.B) {
	tables := corpusSlice(100)
	var syncs, records uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		b.StartTimer()
		r, err := Open(WithShards(4), WithBackend(Disk), WithDir(dir), WithSyncBytes(1))
		if err != nil {
			b.Fatal(err)
		}
		if err := r.IndexTables(context.Background(), tables); err != nil {
			b.Fatal(err)
		}
		if err := r.Flush(); err != nil {
			b.Fatal(err)
		}
		syncs += r.Fsyncs()
		records += uint64(len(tables))
		r.Close()
	}
	b.ReportMetric(float64(syncs)/float64(records), "fsyncs/record")
}

// TestSyncBytesTrigger: a byte-volume threshold must activate the flusher
// and drain pending records without any Flush call.
func TestSyncBytesTrigger(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(WithShards(2), WithBackend(Disk), WithDir(dir), WithSyncBytes(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.IndexTables(context.Background(), corpusSlice(40)); err != nil {
		t.Fatal(err)
	}
	waitSynced(t, r)
	if r.Fsyncs() == 0 {
		t.Fatal("WithSyncBytes issued no fsyncs")
	}
}

// TestSyncIntervalDurability: with only a latency bound configured, an
// acknowledged write becomes durable without Flush — the crash-copy
// reopen sees it once the flusher has drained.
func TestSyncIntervalDurability(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(WithShards(1), WithBackend(Disk), WithDir(dir), WithSyncInterval(DefaultSyncInterval))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	d := docs.Document{ID: "doc:gc", Kind: docs.KindKnowledge, Title: "gc",
		Content: "group commit latency bound durability probe"}
	if err := indexOne(r, context.Background(), d); err != nil {
		t.Fatal(err)
	}
	waitSynced(t, r)

	crash := t.TempDir()
	for _, name := range []string{manifestName, "shard-0000.seg"} {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crash, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	re, err := Open(WithBackend(Disk), WithDir(crash))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, ok := re.Document("doc:gc"); !ok {
		t.Fatal("latency-bound write not durable in crash copy")
	}
}
