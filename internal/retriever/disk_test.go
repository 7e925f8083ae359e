package retriever

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"pneuma/internal/bm25"
	"pneuma/internal/docs"
	"pneuma/internal/embed"
	"pneuma/internal/pnerr"
	"pneuma/internal/table"
	"pneuma/internal/textutil"
	"pneuma/internal/value"
	"pneuma/internal/wire"
)

// buildDiskIndex ingests tables into a fresh disk index at dir and closes
// it (which flushes and writes snapshots), returning the table set.
func buildDiskIndex(t *testing.T, dir string, n, shards int, opts ...Option) []*table.Table {
	t.Helper()
	tables := corpusSlice(n)
	all := append([]Option{WithShards(shards), WithBackend(Disk), WithDir(dir)}, opts...)
	r, err := Open(all...)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.IndexTables(context.Background(), tables); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	return tables
}

// shardFiles returns the shard files under dir with the given extension.
func shardFiles(t *testing.T, dir, ext string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "shard-*"+ext))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// totalSize sums the sizes of the given files.
func totalSize(t *testing.T, files []string) int64 {
	t.Helper()
	var n int64
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

// TestSnapshotReplayParity is the determinism contract for the snapshot
// fast path: an index reopened from snapshots must answer every query
// bit-identically to one rebuilt by full segment replay and to a
// memory-backed index over the same corpus, at several shard counts.
func TestSnapshotReplayParity(t *testing.T) {
	n := 120
	if !testing.Short() {
		n = 1000
	}
	for _, shards := range []int{1, 4, 8} {
		dir := t.TempDir()
		tables := buildDiskIndex(t, dir, n, shards)

		mem := New(WithShards(shards))
		if err := mem.IndexTables(context.Background(), tables); err != nil {
			t.Fatal(err)
		}

		// Snapshot path: .snap files exist from Close.
		if got := len(shardFiles(t, dir, ".snap")); got != shards {
			t.Fatalf("%d shards: %d snapshot files, want %d", shards, got, shards)
		}
		snap, err := Open(WithBackend(Disk), WithDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		snapRes := make(map[string][]docs.Document)
		for _, q := range parityQueries {
			snapRes[q] = mustSearch(t, snap, q, 10)
		}
		snap.Close()

		// Replay path: delete the snapshots.
		for _, f := range shardFiles(t, dir, ".snap") {
			os.Remove(f)
		}
		replay, err := Open(WithBackend(Disk), WithDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range parityQueries {
			want := mustSearch(t, replay, q, 10)
			assertSameResults(t, fmt.Sprintf("%d shards snapshot-vs-replay %q", shards, q), snapRes[q], want)
			memRes := mustSearch(t, mem, q, 10)
			if len(memRes) != len(want) {
				t.Fatalf("%d shards memory-vs-disk %q: %d vs %d results", shards, q, len(memRes), len(want))
			}
			for i := range want {
				if memRes[i].ID != want[i].ID || math.Abs(memRes[i].Score-want[i].Score) > 1e-9 {
					t.Fatalf("%d shards memory-vs-disk %q rank %d: (%s %v) vs (%s %v)",
						shards, q, i, memRes[i].ID, memRes[i].Score, want[i].ID, want[i].Score)
				}
			}
		}
		replay.Close()
	}
}

// TestQuantizedParity: the int8 search tier is deterministic across
// storage modes — for each shard count, int8 arenas rebuilt from the
// float32 ones at snapshot load, rebuilt by a full segment replay, or
// built in memory from the same corpus all answer identically.
func TestQuantizedParity(t *testing.T) {
	n := 120
	if !testing.Short() {
		n = 400
	}
	for _, shards := range []int{1, 4, 8} {
		dir := t.TempDir()
		tables := buildDiskIndex(t, dir, n, shards)

		mem := New(WithShards(shards))
		if err := mem.IndexTables(context.Background(), tables); err != nil {
			t.Fatal(err)
		}

		open := func(name string) map[string][]docs.Document {
			r, err := Open(WithBackend(Disk), WithDir(dir))
			if err != nil {
				t.Fatalf("%d shards %s open: %v", shards, name, err)
			}
			defer r.Close()
			res := make(map[string][]docs.Document)
			for _, q := range parityQueries {
				res[q] = mustSearch(t, r, q, 10)
			}
			return res
		}

		snapRes := open("snapshot")
		for _, f := range shardFiles(t, dir, ".snap") {
			os.Remove(f)
		}
		replayRes := open("replay")

		for _, q := range parityQueries {
			assertSameResults(t, fmt.Sprintf("%d shards replay-vs-snapshot %q", shards, q), replayRes[q], snapRes[q])
			assertSameResults(t, fmt.Sprintf("%d shards memory-vs-snapshot %q", shards, q), mustSearch(t, mem, q, 10), snapRes[q])
		}
		mem.Close()
	}
}

// TestSnapshotSkipsReplayAboveWatermark verifies the incremental path:
// records appended after the last snapshot are replayed on top of the
// bulk-loaded state.
func TestSnapshotSkipsReplayAboveWatermark(t *testing.T) {
	dir := t.TempDir()
	tables := buildDiskIndex(t, dir, 32, 2)

	// Save the snapshots, reopen (snapshot load), append more documents and
	// close, then put the saved snapshots back: same generation, older
	// watermark, so the tail sits above it.
	saved := make(map[string][]byte)
	for _, f := range shardFiles(t, dir, ".snap") {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		saved[f] = data
	}
	r, err := Open(WithBackend(Disk), WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	extra := docs.Document{ID: "doc:extra", Kind: docs.KindKnowledge, Title: "extra",
		Content: "freshly appended record beyond the snapshot watermark"}
	if err := indexOne(r, context.Background(), extra); err != nil {
		t.Fatal(err)
	}
	if !deleteOne(r, "table:"+tables[0].Schema.Name) {
		t.Fatal("delete failed")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	for f, data := range saved {
		if err := os.WriteFile(f, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	re, err := Open(WithBackend(Disk), WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(tables) {
		t.Fatalf("Len = %d, want %d (one add, one delete above watermark)", re.Len(), len(tables))
	}
	if _, ok := re.Document("doc:extra"); !ok {
		t.Fatal("appended document lost")
	}
	if _, ok := re.Document("table:" + tables[0].Schema.Name); ok {
		t.Fatal("deleted document resurrected")
	}
}

// TestTornSnapshotFallsBackToReplay truncates a snapshot mid-file: the
// open must detect it (checksum), fall back to full segment replay, and
// rewrite a healthy snapshot.
func TestTornSnapshotFallsBackToReplay(t *testing.T) {
	dir := t.TempDir()
	tables := buildDiskIndex(t, dir, 24, 2)

	snaps := shardFiles(t, dir, ".snap")
	raw, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snaps[0], raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(snaps[0])
	if err != nil {
		t.Fatal(err)
	}

	re, err := Open(WithBackend(Disk), WithDir(dir))
	if err != nil {
		t.Fatalf("open with torn snapshot: %v", err)
	}
	defer re.Close()
	if re.Len() != len(tables) {
		t.Fatalf("Len = %d, want %d", re.Len(), len(tables))
	}
	// The unusable snapshot was rewritten during open.
	after, err := os.Stat(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() == before.Size() {
		t.Fatal("torn snapshot was not rewritten on open")
	}
}

// TestSnapshotVersionMismatchRebuilds patches the snapshot's version word
// (fixing the checksum so only the version check can reject it): the open
// must rebuild from the segment and rewrite the snapshot at the current
// version.
func TestSnapshotVersionMismatchRebuilds(t *testing.T) {
	dir := t.TempDir()
	tables := buildDiskIndex(t, dir, 24, 2)

	snaps := shardFiles(t, dir, ".snap")
	for _, snap := range snaps {
		raw, err := os.ReadFile(snap)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(raw[4:8], 99)
		body := raw[:len(raw)-4]
		binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.Checksum(body, snapCRCTable))
		if err := os.WriteFile(snap, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	re, err := Open(WithBackend(Disk), WithDir(dir))
	if err != nil {
		t.Fatalf("open with version-mismatched snapshot: %v", err)
	}
	re.Close()
	if ln := lenOf(t, dir, len(tables)); ln != len(tables) {
		t.Fatalf("Len = %d, want %d", ln, len(tables))
	}
	for _, snap := range snaps {
		raw, err := os.ReadFile(snap)
		if err != nil {
			t.Fatal(err)
		}
		if v := binary.LittleEndian.Uint32(raw[4:8]); v != snapVersion {
			t.Fatalf("snapshot %s still at version %d after repair", snap, v)
		}
	}
}

// TestOpenQuantizedIndexByReplay opens an index directory written by an
// older build with quantization switched on (testdata/quantized-index/idx:
// the 24 CSVs beside it, ingested by `pneuma-index -backend disk -shards 2
// -quantize`), whose snapshots carry int8 arenas. Each snapshot is
// rejected, each shard is rebuilt by replaying its log, and the index then
// answers every query exactly like a fresh memory build of the same CSVs;
// after Close the rewritten snapshots load and answer the same again.
func TestOpenQuantizedIndexByReplay(t *testing.T) {
	const fixture = "testdata/quantized-index"
	dir := t.TempDir()
	files, err := os.ReadDir(filepath.Join(fixture, "idx"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(filepath.Join(fixture, "idx", f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loadShardSnapshots := func() []error {
		var errs []error
		for _, snap := range shardFiles(t, dir, ".snap") {
			seg, err := os.ReadFile(strings.TrimSuffix(snap, ".snap") + ".seg")
			if err != nil {
				t.Fatal(err)
			}
			gen := binary.LittleEndian.Uint64(seg[8:16])
			_, _, _, err = loadSnapshot(snap, gen, int64(len(seg)), embed.New().Dim(), hnswSeed, bm25.NewStats())
			errs = append(errs, err)
		}
		return errs
	}
	old := loadShardSnapshots()
	if len(old) != 2 {
		t.Fatalf("fixture holds %d snapshots, want 2", len(old))
	}
	for i, err := range old {
		if err == nil || !strings.Contains(err.Error(), "int8") {
			t.Fatalf("fixture snapshot %d: err = %v, want an int8 rejection", i, err)
		}
	}

	corpus, err := table.LoadDir(filepath.Join(fixture, "csv"))
	if err != nil {
		t.Fatal(err)
	}
	tables := make([]*table.Table, 0, len(corpus))
	for _, tb := range corpus {
		tables = append(tables, tb)
	}
	sort.Slice(tables, func(i, j int) bool { return tables[i].Schema.Name < tables[j].Schema.Name })
	fresh := New(WithShards(2))
	defer fresh.Close()
	if err := fresh.IndexTables(context.Background(), tables); err != nil {
		t.Fatal(err)
	}
	queries := append([]string{"potassium in soil samples", "glacier mass balance", "tariff duty"}, parityQueries...)

	for _, pass := range []string{"replay", "rewritten snapshot"} {
		r, err := Open(WithBackend(Disk), WithDir(dir))
		if err != nil {
			t.Fatalf("%s: %v", pass, err)
		}
		if r.Len() != len(tables) {
			t.Fatalf("%s: Len = %d, want %d", pass, r.Len(), len(tables))
		}
		for _, q := range queries {
			assertSameResults(t, fmt.Sprintf("%s %q", pass, q), mustSearch(t, fresh, q, 10), mustSearch(t, r, q, 10))
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		for i, err := range loadShardSnapshots() {
			if err != nil {
				t.Fatalf("after %s: snapshot %d: %v", pass, i, err)
			}
		}
	}
}

// TestSnapshotSectionsDisagreeKeepsStats pins the restore guarantee
// AttachStats carries: a shard snapshot whose every section parses but
// whose document store holds one document fewer than its index sections
// must fall back to a replay without leaving the snapshot's document
// frequencies behind in the shared Stats. After the open, the shared
// Stats and every shard's BM25 scores equal those of a memory index over
// the same tables.
func TestSnapshotSectionsDisagreeKeepsStats(t *testing.T) {
	dir := t.TempDir()
	tables := buildDiskIndex(t, dir, 24, 2)

	// Rebuild shard 0's snapshot from its own parsed sections, dropping
	// the last stored document: re-encoding (rather than cutting bytes)
	// keeps the HNSW blobs aligned, so every section still parses.
	snap := shardFiles(t, dir, ".snap")[0]
	seg, err := os.ReadFile(shardFiles(t, dir, ".seg")[0])
	if err != nil {
		t.Fatal(err)
	}
	gen := binary.LittleEndian.Uint64(seg[8:16])
	mem, _, _, err := loadSnapshot(snap, gen, int64(len(seg)), embed.New().Dim(), hnswSeed, bm25.NewStats())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	mem.byID.Range(func(k, _ any) bool { ids = append(ids, k.(string)); return true })
	sort.Strings(ids)
	var w wire.Writer
	w.Raw(raw[:snapHeaderSize])
	w.Uvarint(uint64(len(ids) - 1))
	for _, id := range ids[:len(ids)-1] {
		d, _ := mem.Document(id)
		w.String(id)
		encodeDoc(&w, d)
	}
	mem.vec.AppendSnapshot(&w)
	mem.lex.AppendSnapshot(&w)
	var crcb [4]byte
	binary.LittleEndian.PutUint32(crcb[:], crc32.Checksum(w.Bytes(), snapCRCTable))
	w.Raw(crcb[:])
	if err := os.WriteFile(snap, w.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := loadSnapshot(snap, gen, int64(len(seg)), embed.New().Dim(), hnswSeed, bm25.NewStats()); err == nil || !strings.Contains(err.Error(), "sections disagree") {
		t.Fatalf("tampered snapshot: err = %v, want a section disagreement", err)
	}

	r, err := Open(WithBackend(Disk), WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ref := New(WithShards(2))
	if err := ref.IndexTables(context.Background(), tables); err != nil {
		t.Fatal(err)
	}
	if r.Len() != len(tables) {
		t.Fatalf("Len = %d, want %d", r.Len(), len(tables))
	}
	if got, want := r.stats.DocCount(), ref.stats.DocCount(); got != want {
		t.Fatalf("shared DocCount = %d, memory index %d", got, want)
	}
	if got, want := r.stats.AvgDocLen(), ref.stats.AvgDocLen(); got != want {
		t.Fatalf("shared AvgDocLen = %v, memory index %v", got, want)
	}
	for _, tb := range tables[:6] {
		for _, term := range textutil.NormalizeTokens(docs.TableDocument(tb).Content) {
			if got, want := r.stats.DocFreq(term), ref.stats.DocFreq(term); got != want {
				t.Fatalf("shared DocFreq(%q) = %d, memory index %d", term, got, want)
			}
		}
	}
	for i := range r.shards {
		for _, q := range parityQueries {
			got := r.shards[i].mem.lex.Search(q, 10)
			want := ref.shards[i].mem.lex.Search(q, 10)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shard %d %q: BM25 %v, memory index %v", i, q, got, want)
			}
		}
	}
}

// lenOf reopens the index and returns its Len, asserting a clean open.
func lenOf(t *testing.T, dir string, want int) int {
	t.Helper()
	re, err := Open(WithBackend(Disk), WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	return re.Len()
}

// TestSegmentCRCMismatchTruncates flips one byte in the middle of a
// segment (with snapshots removed, forcing a replay): the open must keep
// every record before the damage, drop everything after it, and truncate
// the file to the clean prefix.
func TestSegmentCRCMismatchTruncates(t *testing.T) {
	dir := t.TempDir()
	tables := buildDiskIndex(t, dir, 24, 1)

	for _, f := range shardFiles(t, dir, ".snap") {
		os.Remove(f)
	}
	seg := shardFiles(t, dir, ".seg")[0]
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	mid := len(raw) / 2
	raw[mid] ^= 0xff
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(WithBackend(Disk), WithDir(dir))
	if err != nil {
		t.Fatalf("open with mid-segment corruption: %v", err)
	}
	got := re.Len()
	re.Close()
	if got <= 0 || got >= len(tables) {
		t.Fatalf("Len after mid-segment corruption = %d, want in (0, %d)", got, len(tables))
	}
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > int64(mid) {
		t.Fatalf("segment not truncated at corruption: %d bytes, damage at %d", fi.Size(), mid)
	}
}

// TestReplayFramesStopsAtFirstBadFrame is the table test of the one
// segment frame reader Open's replay and compaction's catch-up share: after
// a whole frame, each kind of damage must stop the reader exactly at the
// damaged frame, with only the frames before it applied.
func TestReplayFramesStopsAtFirstBadFrame(t *testing.T) {
	const dim = 4
	frame := func(payload []byte) []byte {
		var buf bytes.Buffer
		var fw wire.Writer
		if _, err := writeFramedRecord(&buf, &fw, payload); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	add := func(id string) []byte {
		var rec wire.Writer
		encodeAddRecord(&rec, docs.Document{ID: id, Content: "river nitrate " + id}, []float32{1, 2, 3, 4})
		return frame(rec.Bytes())
	}
	badCRC := add("b")
	badCRC[len(badCRC)-1] ^= 0xff
	var oversize wire.Writer
	oversize.Uvarint(maxRecordSize + 1)
	var badOp wire.Writer
	badOp.Byte(9)
	badOp.String("b")

	first := add("a")
	cases := []struct {
		name string
		next []byte
		recs int64 // frames the reader applies
	}{
		{"whole", add("b"), 2},
		{"torn length prefix", []byte{0x80}, 1},
		{"short payload", add("b")[:8], 1},
		{"crc mismatch", badCRC, 1},
		{"length above maxRecordSize", append(oversize.Bytes(), make([]byte, 16)...), 1},
		{"undecodable payload", frame(badOp.Bytes()), 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seg := append(append([]byte(nil), first...), c.next...)
			mem := newMemoryBackend(dim, 1, nil)
			n, recs, err := replayFrames(bytes.NewReader(seg), mem)
			if err != nil {
				t.Fatal(err)
			}
			want := int64(len(first))
			if c.recs == 2 {
				want = int64(len(seg))
			}
			if n != want || recs != c.recs || int64(mem.Len()) != c.recs {
				t.Fatalf("read %d bytes, %d records, Len %d; want %d bytes, %d records", n, recs, mem.Len(), want, c.recs)
			}
		})
	}
}

// TestCompactionShrinksSegment deletes half the corpus and flushes: the
// dead fraction (tombstones + dead adds) crosses the default threshold,
// so after Flush every shard's dead fraction must be back under it — the
// threshold contract, whether the write path or Flush ran the rewrite —
// the segments must have shrunk, and the surviving index must match a
// fresh index over the survivors exactly.
func TestCompactionShrinksSegment(t *testing.T) {
	dir := t.TempDir()
	tables := corpusSlice(64)
	r, err := Open(WithShards(2), WithBackend(Disk), WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.IndexTables(context.Background(), tables); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	before := totalSize(t, shardFiles(t, dir, ".seg"))

	for _, tb := range tables[:32] {
		if !deleteOne(r, "table:"+tb.Schema.Name) {
			t.Fatalf("delete %s failed", tb.Schema.Name)
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, s := range r.shards {
		s.mu.Lock()
		db := s.log
		due, dead, recs := db.shouldCompact(), db.records-int64(db.mem.Len()), db.records
		s.mu.Unlock()
		if due {
			t.Fatalf("shard %d still due after Flush: %d of %d records dead", i, dead, recs)
		}
	}
	if after := totalSize(t, shardFiles(t, dir, ".seg")); after >= before {
		t.Fatalf("segment after compacting 50%%-deleted corpus: %d -> %d bytes, want a shrink", before, after)
	}
	if r.Len() != 32 {
		t.Fatalf("Len = %d, want 32", r.Len())
	}

	// Post-compaction state must equal a fresh index over the survivors
	// (graph rebuilt without tombstones), and survive a reopen.
	fresh := New(WithShards(2))
	if err := fresh.IndexTables(context.Background(), tables[32:]); err != nil {
		t.Fatal(err)
	}
	for _, q := range parityQueries {
		assertSameResults(t, "compacted "+q, mustSearch(t, fresh, q, 10), mustSearch(t, r, q, 10))
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
		assertSameResults(t, "compacted+reopened "+q, mustSearch(t, fresh, q, 10), mustSearch(t, re, q, 10))
	}
}

// TestDirLock verifies the advisory index-directory lock: a second open
// fails fast with the typed ErrIndexLocked, the lock clears on Close, and
// a stale lock left by a dead process is broken automatically.
func TestDirLock(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(WithShards(1), WithBackend(Disk), WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(WithBackend(Disk), WithDir(dir)); !errors.Is(err, pnerr.ErrIndexLocked) {
		t.Fatalf("second open: err = %v, want ErrIndexLocked", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, lockName)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("lock file not removed on Close: %v", err)
	}

	// A lock held by a dead process (an absurd PID) is stale and broken.
	if err := os.WriteFile(filepath.Join(dir, lockName), []byte("999999999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(WithBackend(Disk), WithDir(dir))
	if err != nil {
		t.Fatalf("open over stale lock: %v", err)
	}
	re.Close()
}

// waitSynced blocks until no disk shard has records pending fsync (the
// group-commit flusher has caught up), failing the test after 5s.
func waitSynced(t *testing.T, r *Retriever) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var pending int64
		for _, s := range r.shards {
			s.mu.Lock()
			if s.log != nil {
				pending += s.log.pendingBytes
			}
			s.mu.Unlock()
		}
		if pending == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("group-commit flusher did not drain: %d bytes still pending", pending)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSyncEveryDurability indexes with a sync policy that trips on every
// record (WithSyncBytes(1)) and verifies the records become durable in
// the segment file without any Flush — by copying the live index
// directory (minus the lock) aside and opening the copy, simulating a
// crash of the original process. With group commit the fsync is
// asynchronous but latency-bounded, so the test polls until the flusher
// has drained the pending batch.
func TestSyncEveryDurability(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(WithShards(1), WithBackend(Disk), WithDir(dir), WithSyncBytes(1))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	tables := corpusSlice(12)
	if err := r.IndexTables(context.Background(), tables); err != nil {
		t.Fatal(err)
	}
	if !deleteOne(r, "table:"+tables[0].Schema.Name) {
		t.Fatal("delete failed")
	}
	// No Flush: the group-commit flusher must make every acknowledged
	// record durable within the latency bound. Poll (generously, for slow
	// CI) until the shard reports no pending records.
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
	if re.Len() != len(tables)-1 {
		t.Fatalf("crash-copy Len = %d, want %d (all records incl. tombstone durable)", re.Len(), len(tables)-1)
	}
}

// TestTablePayloadFidelity is the round-trip regression for the binary
// codec: sub-second timestamps and NULL-looking string literals must
// survive flush/reopen byte-identically (the legacy canonical-string
// codec degraded both).
func TestTablePayloadFidelity(t *testing.T) {
	ts := time.Date(2026, 3, 14, 9, 26, 53, 589793238, time.UTC)
	tb := table.New(table.Schema{
		Name:        "fidelity_probe",
		Description: "codec round-trip probe",
		Columns: []table.Column{
			{Name: "stamp", Type: value.KindTime},
			{Name: "label", Type: value.KindString},
			{Name: "reading", Type: value.KindFloat},
			{Name: "count", Type: value.KindInt},
			{Name: "flag", Type: value.KindBool},
		},
	})
	rows := []table.Row{
		{value.Time(ts), value.String("null"), value.Float(3.141592653589793), value.Int(-42), value.Bool(true)},
		{value.Time(ts.Add(time.Nanosecond)), value.String("NA"), value.Float(math.Inf(1)), value.Int(1 << 60), value.Bool(false)},
		{value.Null(), value.String("2024-01-02"), value.Float(-0.0), value.Int(0), value.Null()},
	}
	for _, row := range rows {
		if err := tb.Append(row); err != nil {
			t.Fatal(err)
		}
	}

	dir := t.TempDir()
	r, err := Open(WithShards(1), WithBackend(Disk), WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.IndexTables(context.Background(), []*table.Table{tb}); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(WithBackend(Disk), WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	d, ok := re.Document("table:fidelity_probe")
	if !ok || d.Table == nil {
		t.Fatal("probe table missing after reopen")
	}
	if got := d.Table.NumRows(); got != len(rows) {
		t.Fatalf("%d rows, want %d", got, len(rows))
	}
	for i, row := range rows {
		for j, want := range row {
			g := d.Table.At(i, j)
			if g.Kind() != want.Kind() {
				t.Fatalf("row %d col %d: kind %v, want %v", i, j, g.Kind(), want.Kind())
			}
			switch want.Kind() {
			case value.KindTime:
				if !g.TimeVal().Equal(want.TimeVal()) || g.TimeVal().Nanosecond() != want.TimeVal().Nanosecond() {
					t.Fatalf("row %d col %d: time %v, want %v", i, j, g.TimeVal(), want.TimeVal())
				}
			case value.KindFloat:
				if math.Float64bits(g.FloatVal()) != math.Float64bits(want.FloatVal()) {
					t.Fatalf("row %d col %d: float bits %x, want %x", i, j,
						math.Float64bits(g.FloatVal()), math.Float64bits(want.FloatVal()))
				}
			default:
				if g.String() != want.String() || g.StringVal() != want.StringVal() {
					t.Fatalf("row %d col %d: %q, want %q", i, j, g.String(), want.String())
				}
			}
		}
	}
}

// TestFormatZeroIndexRefused forges the format-less (format 0, PR-2 era)
// manifest over a binary index: Open must refuse it with a typed
// corruption error that says how to recover, release the directory lock
// and leave every file byte-for-byte untouched — restoring the manifest
// then opens the same index.
func TestFormatZeroIndexRefused(t *testing.T) {
	dir := t.TempDir()
	tables := buildDiskIndex(t, dir, 24, 2)
	manifestPath := filepath.Join(dir, manifestName)
	good, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(map[string]int{"shards": 2, "dim": embed.New().Dim()})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifestPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	dirHashes := func() map[string][sha256.Size]byte {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		sums := make(map[string][sha256.Size]byte, len(entries))
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			sums[e.Name()] = sha256.Sum256(b)
		}
		return sums
	}
	before := dirHashes()

	r, err := Open(WithBackend(Disk), WithDir(dir))
	if err == nil {
		r.Close()
		t.Fatal("format-0 manifest opened")
	}
	if !errors.Is(err, pnerr.ErrIndexCorrupt) {
		t.Fatalf("err = %v, want pnerr.ErrIndexCorrupt", err)
	}
	if !strings.Contains(err.Error(), "index format 0 predates this build; delete the directory to rebuild") {
		t.Fatalf("err = %q does not say how to recover", err)
	}
	if after := dirHashes(); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused open changed the directory:\nbefore %v\nafter  %v", before, after)
	}

	if err := os.WriteFile(manifestPath, good, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(WithBackend(Disk), WithDir(dir))
	if err != nil {
		t.Fatalf("open with restored manifest: %v", err)
	}
	defer re.Close()
	if re.Len() != len(tables) {
		t.Fatalf("Len = %d, want %d", re.Len(), len(tables))
	}
	want := "table:" + tables[0].Schema.Name
	if _, ok := re.Document(want); !ok {
		t.Fatalf("%s missing after restored open", want)
	}
	if hits := mustSearch(t, re, tables[0].Schema.Name, 3); len(hits) == 0 {
		t.Fatal("restored index answers nothing")
	}
}

// TestTornSegmentHeaderResets verifies a segment shorter than its header
// (crash between creation and first sync) opens cleanly as empty instead
// of failing every subsequent Open.
func TestTornSegmentHeaderResets(t *testing.T) {
	dir := t.TempDir()
	tables := buildDiskIndex(t, dir, 16, 2)
	seg := shardFiles(t, dir, ".seg")[0]
	if err := os.WriteFile(seg, []byte("pns"), 0o644); err != nil {
		t.Fatal(err)
	}
	os.Remove(shardFiles(t, dir, ".snap")[0])

	re, err := Open(WithBackend(Disk), WithDir(dir))
	if err != nil {
		t.Fatalf("open with torn segment header: %v", err)
	}
	defer re.Close()
	if re.Len() >= len(tables) || re.Len() == 0 {
		t.Fatalf("Len = %d, want the other shard's documents only (0 < n < %d)", re.Len(), len(tables))
	}
}

// TestDiskConcurrentAccess drives concurrent searches, deletes and
// flushes (including a compaction) against one disk-backed retriever —
// the race-smoke scenario for the disk backend.
func TestDiskConcurrentAccess(t *testing.T) {
	dir := t.TempDir()
	tables := corpusSlice(48)
	r, err := Open(WithShards(4), WithBackend(Disk), WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.IndexTables(context.Background(), tables); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				q := parityQueries[(g+i)%len(parityQueries)]
				if _, err := r.Search(ctx, q, 5); err != nil {
					t.Errorf("search: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, tb := range tables[:24] {
			deleteOne(r, "table:"+tb.Schema.Name)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if err := r.Flush(); err != nil {
				t.Errorf("flush: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(WithBackend(Disk), WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 24 {
		t.Fatalf("Len after concurrent deletes = %d, want 24", re.Len())
	}
}

// TestParallelShardOpenBeatsSequential pins the concurrent cold open
// (shards load in parallel goroutines, landed with the snapshot work):
// the fan-out wall clock must beat the sum of the per-shard open times,
// which is what a sequential open would have cost. The comparison only
// means something with real parallelism and non-trivial per-shard work,
// so it skips on single-CPU runners and sub-millisecond corpora.
func TestParallelShardOpenBeatsSequential(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs ≥2 CPUs for a parallel open to beat the sequential sum")
	}
	dir := t.TempDir()
	n := 120
	if !testing.Short() {
		n = 480
	}
	buildDiskIndex(t, dir, n, 4)
	re, err := Open(WithBackend(Disk), WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.openShardSum < 2*time.Millisecond {
		t.Skipf("per-shard opens too fast to compare meaningfully (sum %v)", re.openShardSum)
	}
	if re.openWall >= re.openShardSum {
		t.Fatalf("concurrent open took %v, sequential sum of shard opens is %v — fan-out paid nothing", re.openWall, re.openShardSum)
	}
}
