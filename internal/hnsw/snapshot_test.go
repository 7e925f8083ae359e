package hnsw

import (
	"fmt"
	"math/rand"
	"testing"

	"pneuma/internal/wire"
)

// snapshotBytes serializes ix through the wire-writer snapshot API.
func snapshotBytes(t *testing.T, ix *Index) []byte {
	t.Helper()
	var w wire.Writer
	ix.AppendSnapshot(&w)
	return w.Bytes()
}

// loadSnapshotBytes restores a snapshot into ix from raw bytes, using a
// shared reader like the retriever's load path does.
func loadSnapshotBytes(ix *Index, raw []byte) error {
	return ix.LoadSnapshot(wire.NewSharedReader(raw))
}

// buildIndex populates an index with n deterministic vectors, deleting
// every seventh, so the serialized state includes tombstones.
func buildIndex(t *testing.T, cfg Config, dim, n int) *Index {
	t.Helper()
	ix := New(dim, cfg)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < n; i++ {
		vec := make([]float32, dim)
		for d := range vec {
			vec[d] = rng.Float32()*2 - 1
		}
		if err := addOne(ix, fmt.Sprintf("v%03d", i), vec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 7 {
		deleteOne(ix, fmt.Sprintf("v%03d", i))
	}
	return ix
}

// queryVec returns a deterministic query vector.
func queryVec(dim int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float32, dim)
	for d := range v {
		v[d] = rng.Float32()*2 - 1
	}
	return v
}

// TestSnapshotRoundTrip serializes a graph with tombstones and restores
// it into a fresh index: every query must return bit-identical results,
// and — the rng fast-forward contract — inserts after the restore must
// leave both indexes answering identically too.
func TestSnapshotRoundTrip(t *testing.T) {
	const dim, n = 16, 120
	cfg := Config{Seed: 42}
	orig := buildIndex(t, cfg, dim, n)

	raw := snapshotBytes(t, orig)
	restored := New(dim, cfg)
	if err := loadSnapshotBytes(restored, raw); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != orig.Len() {
		t.Fatalf("restored Len = %d, want %d", restored.Len(), orig.Len())
	}
	for q := int64(0); q < 10; q++ {
		query := queryVec(dim, q)
		a, err := orig.Search(query, 10)
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.Search(query, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("query %d: %d vs %d results", q, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %d rank %d: %+v vs %+v", q, i, a[i], b[i])
			}
		}
	}

	// Continue building both: the restored index's level generator must be
	// at the same stream position, so the graphs stay identical.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		vec := make([]float32, dim)
		for d := range vec {
			vec[d] = rng.Float32()*2 - 1
		}
		id := fmt.Sprintf("post%03d", i)
		if err := addOne(orig, id, vec); err != nil {
			t.Fatal(err)
		}
		if err := addOne(restored, id, vec); err != nil {
			t.Fatal(err)
		}
	}
	for q := int64(20); q < 26; q++ {
		query := queryVec(dim, q)
		a, _ := orig.Search(query, 10)
		b, _ := restored.Search(query, 10)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("post-restore query %d rank %d: %+v vs %+v", q, i, a[i], b[i])
			}
		}
	}
}

// TestSnapshotErrors covers the refusal paths: restoring into a non-empty
// index, a dimensionality mismatch, and a truncated section.
func TestSnapshotErrors(t *testing.T) {
	const dim = 8
	orig := buildIndex(t, Config{Seed: 1}, dim, 30)
	raw := snapshotBytes(t, orig)

	nonEmpty := buildIndex(t, Config{Seed: 1}, dim, 3)
	if err := loadSnapshotBytes(nonEmpty, raw); err == nil {
		t.Fatal("LoadSnapshot into non-empty index succeeded")
	}
	wrongDim := New(dim+1, Config{Seed: 1})
	if err := loadSnapshotBytes(wrongDim, raw); err == nil {
		t.Fatal("LoadSnapshot with wrong dim succeeded")
	}
	truncated := New(dim, Config{Seed: 1})
	if err := loadSnapshotBytes(truncated, raw[:len(raw)/2]); err == nil {
		t.Fatal("LoadSnapshot of truncated section succeeded")
	}
	if truncated.Len() != 0 {
		t.Fatalf("failed restore mutated the index: Len = %d", truncated.Len())
	}
}

// TestPinLiveOrder verifies the compaction walker yields exactly the live
// nodes in insertion order, and keeps walking the pinned view after later
// adds and deletes publish newer ones.
func TestPinLiveOrder(t *testing.T) {
	ix := buildIndex(t, Config{Seed: 5}, 8, 40)
	walk := ix.PinLive()
	live := ix.Len()
	deleteOne(ix, "v001")
	if err := addOne(ix, "w000", queryVec(8, 1)); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		var ids []string
		walk(func(id string, vec []float32) bool {
			ids = append(ids, id)
			return true
		})
		if len(ids) != live {
			t.Fatalf("pass %d: visited %d nodes, live at pin %d", pass, len(ids), live)
		}
		for i := 1; i < len(ids); i++ {
			if ids[i-1] >= ids[i] {
				t.Fatalf("insertion order violated: %s before %s", ids[i-1], ids[i])
			}
		}
		for _, id := range ids {
			if id[0] != 'v' {
				t.Fatalf("walker saw %q, published after the pin", id)
			}
		}
		if ids[0] != "v001" { // v000 was deleted before the pin
			t.Fatalf("walker lost v001, deleted after the pin: %v", ids[:3])
		}
	}
}

// TestAdoptFrom verifies the install segment compaction commits with:
// after adopting a shadow built over the live nodes in insertion order,
// the index answers exactly like a fresh index over those survivors, and
// later inserts land as they would on the donor (same level generator
// position, same writer state).
func TestAdoptFrom(t *testing.T) {
	const dim = 16
	for _, cfg := range []Config{{Seed: 5}, {Seed: 5, Quantize: true}} {
		ix := buildIndex(t, cfg, dim, 80)
		shadow, fresh := New(dim, cfg), New(dim, cfg)
		ix.PinLive()(func(id string, vec []float32) bool {
			v := append([]float32(nil), vec...)
			if err := addOne(shadow, id, v); err != nil {
				t.Fatal(err)
			}
			if err := addOne(fresh, id, v); err != nil {
				t.Fatal(err)
			}
			return true
		})
		ix.AdoptFrom(shadow)
		if ix.Len() != fresh.Len() {
			t.Fatalf("quantize=%v: adopted Len = %d, want %d", cfg.Quantize, ix.Len(), fresh.Len())
		}
		same := func(label string) {
			t.Helper()
			for q := int64(0); q < 12; q++ {
				query := queryVec(dim, q)
				a, err := fresh.Search(query, 10)
				if err != nil {
					t.Fatal(err)
				}
				b, err := ix.Search(query, 10)
				if err != nil {
					t.Fatal(err)
				}
				if len(a) != len(b) {
					t.Fatalf("quantize=%v %s query %d: %d vs %d results", cfg.Quantize, label, q, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("quantize=%v %s query %d rank %d: fresh %+v, adopted %+v", cfg.Quantize, label, q, i, a[i], b[i])
					}
				}
			}
		}
		same("after AdoptFrom")
		for i := 0; i < 30; i++ {
			id, vec := fmt.Sprintf("post%03d", i), queryVec(dim, int64(100+i))
			if err := addOne(ix, id, vec); err != nil {
				t.Fatal(err)
			}
			if err := addOne(fresh, id, vec); err != nil {
				t.Fatal(err)
			}
		}
		deleteOne(ix, "post007")
		deleteOne(fresh, "post007")
		same("after later inserts")
	}
}
