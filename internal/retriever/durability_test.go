package retriever

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"pneuma/internal/table"
)

// crashCopy copies an open index directory aside, leaving out the lock
// file, and returns the copy: what a reopen after a crash of the process
// holding dir would find, with no Flush or Close having run.
func crashCopy(t testing.TB, dir string) string {
	t.Helper()
	crash := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == lockName {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crash, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return crash
}

// TestAcknowledgedWriteIsDurable is the disk backend's durability rule:
// once IndexTables or DeleteDocuments returns, its records are on disk.
// A crash copy taken with no Flush or Close must reopen with the batch
// present and the deleted document absent. Compaction is off: a rewrite
// drains the write buffer too, and would hide a delete that did not.
func TestAcknowledgedWriteIsDurable(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(WithShards(4), WithBackend(Disk), WithDir(dir), withCompactRatio(compactionOff))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	tables := corpusSlice(40)
	if err := r.IndexTables(context.Background(), tables); err != nil {
		t.Fatal(err)
	}
	gone := "table:" + tables[0].Schema.Name
	if !deleteOne(r, gone) {
		t.Fatal("delete failed")
	}

	re, err := Open(WithBackend(Disk), WithDir(crashCopy(t, dir)))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(tables)-1 {
		t.Fatalf("crash-copy Len = %d, want %d", re.Len(), len(tables)-1)
	}
	if _, ok := re.Document(gone); ok {
		t.Fatalf("crash copy still holds deleted %s", gone)
	}
	for _, tb := range tables[1:] {
		if _, ok := re.Document("table:" + tb.Schema.Name); !ok {
			t.Fatalf("crash copy lost table:%s", tb.Schema.Name)
		}
	}
}

// TestFsyncsPerTouchedShard pins the cost of the rule: a write call
// fsyncs each shard it appended to exactly once, whatever its batch size,
// and a call that appended nothing does not sync.
func TestFsyncsPerTouchedShard(t *testing.T) {
	r, err := Open(WithShards(4), WithBackend(Disk), WithDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()
	touched := func(ids []string) uint64 {
		seen := map[int]bool{}
		for _, id := range ids {
			seen[r.shardIndex(id)] = true
		}
		return uint64(len(seen))
	}
	tables := corpusSlice(40)
	var ids []string
	for _, n := range []int{1, 3, 36} {
		batch := tables[:n]
		tables = tables[n:]
		batchIDs := make([]string, n)
		for i, tb := range batch {
			batchIDs[i] = "table:" + tb.Schema.Name
		}
		before := r.Fsyncs()
		if err := r.IndexTables(ctx, batch); err != nil {
			t.Fatal(err)
		}
		if got, want := r.Fsyncs()-before, touched(batchIDs); got != want {
			t.Fatalf("IndexTables of %d tables: %d fsyncs, want %d (one per touched shard)", n, got, want)
		}
		ids = append(ids, batchIDs...)
	}

	before := r.Fsyncs()
	if n := r.DeleteDocuments([]string{"table:absent-a", "table:absent-b"}); n != 0 {
		t.Fatalf("deleted %d absent documents", n)
	}
	if got := r.Fsyncs() - before; got != 0 {
		t.Fatalf("deleting absent IDs: %d fsyncs, want 0", got)
	}
	del := append(ids[:5:5], "table:absent-a")
	before = r.Fsyncs()
	if n := r.DeleteDocuments(del); n != 5 {
		t.Fatalf("deleted %d, want 5", n)
	}
	if got, want := r.Fsyncs()-before, touched(ids[:5]); got != want {
		t.Fatalf("DeleteDocuments: %d fsyncs, want %d (one per shard that removed a document)", got, want)
	}
}

// TestDirectorySyncs holds every rename that replaces an index file,
// and the creation of a segment, to a directory fsync before its writer
// goes on: a fresh manifest and segment, a snapshot written by Flush and a
// committed compaction each raise the directory-sync count.
func TestDirectorySyncs(t *testing.T) {
	before := dirSyncs.Load()
	r, err := Open(WithShards(1), WithBackend(Disk), WithDir(t.TempDir()), withCompactRatio(0.2))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := dirSyncs.Load() - before; got != 2 {
		t.Fatalf("opening a fresh index: %d directory syncs, want 2 (the manifest and the segment)", got)
	}

	tables := corpusSlice(20)
	if err := r.IndexTables(context.Background(), tables); err != nil {
		t.Fatal(err)
	}
	before = dirSyncs.Load()
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := dirSyncs.Load() - before; got != 1 {
		t.Fatalf("Flush: %d directory syncs, want 1 (the snapshot)", got)
	}

	// Deletes past the ratio start a compaction from the write path; no
	// Flush runs, so no snapshot is written while it commits.
	before = dirSyncs.Load()
	for _, tb := range tables[:10] {
		if !deleteOne(r, "table:"+tb.Schema.Name) {
			t.Fatalf("delete %s failed", tb.Schema.Name)
		}
	}
	cs := waitForCompactions(t, r, 1)
	if got := dirSyncs.Load() - before; got < cs.Runs {
		t.Fatalf("%d committed compactions made %d directory syncs", cs.Runs, got)
	}
}

// BenchmarkDiskAddTables measures a disk-backed IndexTables at batches of
// 1, 8 and 64 tables: each call returns only after its records are
// fsynced, and fsyncs/batch reports what that costs (at most the shard
// count, 4). Tables cycle through a fixed pool, so a long run re-adds
// them; compaction is off so no rewrite lands inside the timing.
func BenchmarkDiskAddTables(b *testing.B) {
	pool := corpusSlice(512)
	for _, n := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("batch=%d", n), func(b *testing.B) {
			r, err := Open(WithShards(4), WithBackend(Disk), WithDir(b.TempDir()), withCompactRatio(compactionOff))
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			batch := make([]*table.Table, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range batch {
					batch[j] = pool[(i*n+j)%len(pool)]
				}
				if err := r.IndexTables(context.Background(), batch); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(r.Fsyncs())/float64(b.N), "fsyncs/batch")
		})
	}
}

// TestCompactionCommitFailureLosesNoWrite: when the directory sync after a
// compaction's rename fails, the shard must still append to the segment
// the directory names, not to the unlinked old one. The next write call
// either fails or is acknowledged and survives a reopen, and the sync error
// reaches that write call or the next Flush. The sync fails once (the
// write's retry succeeds) or until the test restores it (the write, which
// the directory may not name after a crash, must fail).
func TestCompactionCommitFailureLosesNoWrite(t *testing.T) {
	for _, persistent := range []bool{false, true} {
		t.Run(fmt.Sprintf("persistent=%v", persistent), func(t *testing.T) {
			injected := errors.New("injected directory sync failure")
			var failing atomic.Bool
			real := syncDir
			syncDir = func(dir string) error {
				if failing.Load() {
					if !persistent {
						failing.Store(false)
					}
					return injected
				}
				return real(dir)
			}
			defer func() { syncDir = real }()

			dir := t.TempDir()
			r, err := Open(WithShards(1), WithBackend(Disk), WithDir(dir), withCompactRatio(compactionOff))
			if err != nil {
				t.Fatal(err)
			}
			tables := corpusSlice(21)
			if err := r.IndexTables(context.Background(), tables[:20]); err != nil {
				t.Fatal(err)
			}
			for _, tb := range tables[:10] {
				if !deleteOne(r, "table:"+tb.Schema.Name) {
					t.Fatalf("delete %s failed", tb.Schema.Name)
				}
			}

			// Run exactly one compaction, with the directory sync failing.
			failing.Store(true)
			s := r.shards[0]
			s.mu.Lock()
			s.log.compactRatio = 0.2
			done := s.log.scheduleCompactLocked()
			s.mu.Unlock()
			<-done
			s.mu.Lock()
			s.log.compactRatio = compactionOff
			s.mu.Unlock()
			if cs := r.CompactionStats(); cs.Runs != 1 {
				t.Fatalf("compaction did not commit: %+v", cs)
			}

			added := "table:" + tables[20].Schema.Name
			werr := r.IndexTables(context.Background(), tables[20:])
			ferr := r.Flush()
			if !errors.Is(werr, injected) && !errors.Is(ferr, injected) {
				t.Fatalf("the failed directory sync reached neither the next write (%v) nor Flush (%v)", werr, ferr)
			}
			r.Close()
			syncDir = real

			re, err := Open(WithBackend(Disk), WithDir(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if _, ok := re.Document(added); werr == nil && !ok {
				t.Fatalf("IndexTables of %s was acknowledged after the failed commit and lost at reopen", added)
			}
			if persistent && werr == nil {
				t.Fatal("a write was acknowledged while the directory sync that makes its segment durable kept failing")
			}
			t.Logf("next write: %v; Flush: %v", werr, ferr)
			for _, tb := range tables[10:20] {
				if _, ok := re.Document("table:" + tb.Schema.Name); !ok {
					t.Fatalf("reopen lost table:%s", tb.Schema.Name)
				}
			}
		})
	}
}
