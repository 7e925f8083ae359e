package retriever

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pneuma/internal/docs"
)

// speedTierParity runs the storage-mode parity matrix under extra options:
// for each shard count, results from a snapshot open (ReadFile), a
// snapshot open (mmap), a full segment replay and a memory-backed build of
// the same corpus must be identical.
func speedTierParity(t *testing.T, extra ...Option) {
	t.Helper()
	n := 120
	if !testing.Short() {
		n = 400
	}
	for _, shards := range []int{1, 4, 8} {
		dir := t.TempDir()
		tables := buildDiskIndex(t, dir, n, shards, extra...)

		mem := New(append([]Option{WithShards(shards)}, extra...)...)
		if err := mem.IndexTables(context.Background(), tables); err != nil {
			t.Fatal(err)
		}

		open := func(name string, opts ...Option) map[string][]docs.Document {
			all := append([]Option{WithBackend(Disk), WithDir(dir)}, extra...)
			all = append(all, opts...)
			r, err := Open(all...)
			if err != nil {
				t.Fatalf("%d shards %s open: %v", shards, name, err)
			}
			defer r.Close()
			res := make(map[string][]docs.Document)
			for _, q := range parityQueries {
				// Deep-copy before Close: mmap-backed results alias the
				// snapshot mapping, which Close releases (the documented
				// lifetime caveat — retaining them would fault).
				ds := mustSearch(t, r, q, 10)
				cp := make([]docs.Document, len(ds))
				for i, d := range ds {
					d.ID = strings.Clone(d.ID)
					d.Title = strings.Clone(d.Title)
					d.Content = strings.Clone(d.Content)
					d.Source = strings.Clone(d.Source)
					cp[i] = d
				}
				res[q] = cp
			}
			return res
		}

		snapRes := open("snap-readfile")
		mmapRes := open("snap-mmap", WithMmap(true))
		for _, f := range shardFiles(t, dir, ".snap") {
			os.Remove(f)
		}
		replayRes := open("replay")

		for _, q := range parityQueries {
			assertSameResults(t, fmt.Sprintf("%d shards mmap-vs-readfile %q", shards, q), mmapRes[q], snapRes[q])
			assertSameResults(t, fmt.Sprintf("%d shards replay-vs-readfile %q", shards, q), replayRes[q], snapRes[q])
			assertSameResults(t, fmt.Sprintf("%d shards memory-vs-readfile %q", shards, q), mustSearch(t, mem, q, 10), snapRes[q])
		}
		mem.Close()
	}
}

// TestMmapParity: mapping the snapshot instead of reading it must not
// change a single result, at any shard count, against either the replay
// or the memory baseline.
func TestMmapParity(t *testing.T) { speedTierParity(t, WithMmap(true)) }

// TestQuantizedParity: the int8 speed tier is deterministic across
// storage modes — quantized arenas restored from a snapshot (ReadFile or
// mmap), rebuilt by replay, or built in memory all answer identically.
func TestQuantizedParity(t *testing.T) { speedTierParity(t, WithQuantize(true)) }

// TestQuantizedMmapParity: both knobs together — zero-copy int8 arenas
// aliasing the mapping must score exactly like heap-allocated ones.
func TestQuantizedMmapParity(t *testing.T) {
	speedTierParity(t, WithQuantize(true), WithMmap(true))
}

// TestTornSnapshotMmapFallsBackToReplay is the mmap row of the corruption
// matrix: a torn snapshot opened with WithMmap must fail the checksum
// exactly like the ReadFile path, fall back to segment replay, and
// rewrite a healthy snapshot — never serve from a half-written mapping.
func TestTornSnapshotMmapFallsBackToReplay(t *testing.T) {
	dir := t.TempDir()
	tables := buildDiskIndex(t, dir, 24, 2, WithQuantize(true))

	snaps := shardFiles(t, dir, ".snap")
	raw, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snaps[0], raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(WithBackend(Disk), WithDir(dir), WithMmap(true), WithQuantize(true))
	if err != nil {
		t.Fatalf("mmap open with torn snapshot: %v", err)
	}
	defer re.Close()
	if re.Len() != len(tables) {
		t.Fatalf("Len = %d, want %d", re.Len(), len(tables))
	}
	healed, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(healed) == len(raw)/2 {
		t.Fatal("torn snapshot was not rewritten on open")
	}
}

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
