package retriever

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"pneuma/internal/kramabench"
)

// diskGolden pins the on-disk format byte for byte: the SHA-256 of every
// file TestDiskFormatGolden leaves in its index directory. A change that
// moves any of them changes what older builds read back, so it must bump
// segFormat or snapVersion and regenerate these on purpose (a mismatch
// logs every file's current hash).
var diskGolden = map[string]string{
	"manifest.json":   "860c214046a8dcee2e296a6dc51a96fa6361b6d597b46d8a42cf9b7f88938a53",
	"shard-0000.seg":  "51c8d49a15bd235cbea2e9d64c03db88c0fdbd457401adc221e4059e75b6675d",
	"shard-0000.snap": "986cb5f8b18799232266d0cc6b7b38fd2b9fa33c7c05afc2bc3e8a28befaa2f9",
	"shard-0001.seg":  "c285caee6927beaa7258be3321e1f3a8372d01d49e86da7b9d97b31d37fea92b",
	"shard-0001.snap": "32784e3e90c741039c008ea6cd325657cc8af1ae183435b44ff69ec3311dfdbc",
}

// TestDiskFormatGolden drives a 2-shard Disk index through every kind of
// file write — segment appends, snapshots, tombstones, a compaction
// rewrite that advances the segment generation, and the snapshot the
// Flush after it writes — and compares each file's hash with diskGolden. The
// SIMD and scalar kernel tiers must both reproduce it (make tier1-scalar
// runs this package under PNEUMA_FORCE_SCALAR=1).
func TestDiskFormatGolden(t *testing.T) {
	dir := t.TempDir()
	tables := kramabench.SyntheticSlice(48)
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
	var ids []string
	for i, tb := range tables {
		if i%2 == 0 {
			ids = append(ids, "table:"+tb.Schema.Name)
		}
	}
	if n := r.DeleteDocuments(ids); n != len(ids) {
		t.Fatalf("deleted %d of %d", n, len(ids))
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if cs := r.CompactionStats(); cs.Runs == 0 {
		t.Fatalf("deleting half the corpus ran no compaction: %+v", cs)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	for _, seg := range shardFiles(t, dir, ".seg") {
		if gen := segGeneration(t, seg); gen < 2 {
			t.Fatalf("%s: generation %d, want a compaction rewrite (≥ 2)", seg, gen)
		}
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		got[e.Name()] = hex.EncodeToString(sum[:])
	}
	if reflect.DeepEqual(got, diskGolden) {
		return
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Logf("%q: %q,", name, got[name])
	}
	t.Fatalf("index directory differs from diskGolden (%d files, golden has %d); current hashes above", len(got), len(diskGolden))
}
