package hnsw

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"pneuma/internal/vecmath"
	"pneuma/internal/wire"
)

// unitVec returns a deterministic unit-norm vector, matching the
// embedder's output convention (the index compares by squared L2, which
// ranks identically to cosine only for unit vectors — the recall metric
// below depends on that equivalence).
func unitVec(rng *rand.Rand, dim int) []float32 {
	vec := make([]float32, dim)
	for d := range vec {
		vec[d] = rng.Float32()*2 - 1
	}
	n := vecmath.Norm(vec)
	for d := range vec {
		vec[d] /= n
	}
	return vec
}

// buildCorpus populates an index with a deterministic corpus of unit
// vectors and returns it alongside the raw vectors by ID.
func buildCorpus(t *testing.T, dim, n int) (*Index, map[string][]float32) {
	t.Helper()
	ix := New(dim, Config{Seed: 42})
	vecs := make(map[string][]float32, n)
	rng := rand.New(rand.NewSource(2026))
	for i := 0; i < n; i++ {
		vec := unitVec(rng, dim)
		id := fmt.Sprintf("v%04d", i)
		vecs[id] = vec
		if err := addOne(ix, id, vec); err != nil {
			t.Fatal(err)
		}
	}
	return ix, vecs
}

// exactTopK is the oracle: a brute-force cosine scan of every vector in
// vecs, ranked by (score desc, ID asc), cut to k.
func exactTopK(query []float32, vecs map[string][]float32, k int) map[string]bool {
	type scored struct {
		id    string
		score float32
	}
	qNorm := vecmath.Norm(query)
	all := make([]scored, 0, len(vecs))
	for id, v := range vecs {
		all = append(all, scored{id, vecmath.CosineWithNorms(query, v, qNorm, vecmath.Norm(v))})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].id < all[j].id
	})
	top := make(map[string]bool, k)
	for _, s := range all[:k] {
		top[s.id] = true
	}
	return top
}

// TestQuantizedRecallAndExactScores is the search path's accuracy
// contract: over a 1k × 64-dim corpus, top-10 recall against an exact
// cosine scan stays at or above what the float32 walk that preceded the
// int8 walk scored on the same queries (0.9935 on the full corpus, 0.9925
// after deleting every 9th vector), and every returned score is the exact
// float32 cosine of the stored vector, so quantization can change only
// which candidates reach the rescore set, never the numbers attached to
// them.
func TestQuantizedRecallAndExactScores(t *testing.T) {
	const dim, n, k, queries = 64, 1000, 10, 200
	ix, vecs := buildCorpus(t, dim, n)

	check := func(label string, floor float64) {
		t.Helper()
		var hit, total int
		for qi := int64(0); qi < queries; qi++ {
			query := unitVec(rand.New(rand.NewSource(1000+qi)), dim)
			qNorm := vecmath.Norm(query)
			got, err := ix.Search(query, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != k {
				t.Fatalf("%s query %d: %d results, want %d", label, qi, len(got), k)
			}
			want := exactTopK(query, vecs, k)
			for _, r := range got {
				if want[r.ID] {
					hit++
				}
				ref := vecmath.CosineWithNorms(query, vecs[r.ID], qNorm, vecmath.Norm(vecs[r.ID]))
				if r.Score != ref {
					t.Fatalf("%s query %d: score for %s = %v, exact cosine %v", label, qi, r.ID, r.Score, ref)
				}
			}
			total += k
		}
		recall := float64(hit) / float64(total)
		t.Logf("%s: recall@%d over %d queries: %.4f", label, k, queries, recall)
		if recall < floor {
			t.Fatalf("%s: recall@%d = %.4f, want >= %.4f", label, k, recall, floor)
		}
	}

	check("full corpus", 0.9935)
	for i := 0; i < n; i += 9 {
		id := fmt.Sprintf("v%04d", i)
		deleteOne(ix, id)
		delete(vecs, id)
	}
	check("every 9th deleted", 0.9925)
}

// TestQuantizedArenaRatio pins the memory claim: at the embedder's
// dimensionality the complete int8 side (codes + per-vector constants)
// costs at most 30% of the float32 arena.
func TestQuantizedArenaRatio(t *testing.T) {
	const dim, n = 256, 200
	ix := New(dim, Config{Seed: 7})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		vec := make([]float32, dim)
		for d := range vec {
			vec[d] = rng.Float32()*2 - 1
		}
		if err := addOne(ix, fmt.Sprintf("v%03d", i), vec); err != nil {
			t.Fatal(err)
		}
	}
	f, q := ix.ArenaBytes()
	if f != n*dim*4 {
		t.Fatalf("float32 arena = %d bytes, want %d", f, n*dim*4)
	}
	if ratio := float64(q) / float64(f); ratio > 0.30 {
		t.Fatalf("int8 arena is %.1f%% of float32 (%d / %d bytes), want <= 30%%", ratio*100, q, f)
	}
}

// int8FlagOffset returns the offset of the int8-section flag byte in a
// serialized hnsw section: it walks the variable-width prefix exactly as
// LoadSnapshot reads it.
func int8FlagOffset(t *testing.T, raw []byte) int {
	t.Helper()
	rd := wire.NewReader(raw)
	rd.Uvarint() // dim
	n := int(rd.Uvarint())
	for i := 0; i < n; i++ {
		_ = rd.String()
	}
	for i := 0; i < n; i++ {
		rd.Uvarint()
	}
	rd.Skip(n) // tombstones
	for i := 0; i < n; i++ {
		layers := int(rd.Uvarint())
		for l := 0; l < layers; l++ {
			cnt := int(rd.Uvarint())
			for j := 0; j < cnt; j++ {
				rd.Uvarint()
			}
		}
	}
	rd.Varint()  // entry
	rd.Varint()  // maxLvl
	rd.Uvarint() // live
	rd.Uvarint() // draws
	if err := rd.Err(); err != nil {
		t.Fatal(err)
	}
	return len(raw) - rd.Remaining()
}

// TestQuantizedSnapshotRoundTrip restores a snapshot with tombstones and
// checks the int8 arenas LoadSnapshot rebuilds equal the ones the inserts
// built, so searches stay bit-identical. A section whose int8 flag is set
// (the layout older builds wrote when quantizing) must be rejected and
// leave the index empty.
func TestQuantizedSnapshotRoundTrip(t *testing.T) {
	const dim, n, k = 32, 300, 10
	orig, _ := buildCorpus(t, dim, n)
	for i := 0; i < n; i += 9 {
		deleteOne(orig, fmt.Sprintf("v%04d", i))
	}
	raw := snapshotBytes(t, orig)

	restored := New(dim, Config{Seed: 42})
	if err := loadSnapshotBytes(restored, raw); err != nil {
		t.Fatal(err)
	}
	a, b := orig.view.Load(), restored.view.Load()
	if !slices.Equal(a.qvecs, b.qvecs) || !slices.Equal(a.qscale, b.qscale) ||
		!slices.Equal(a.qoff, b.qoff) || !slices.Equal(a.qsum, b.qsum) {
		t.Fatal("requantized arenas differ from the ones built by inserts")
	}
	if restored.Len() != orig.Len() {
		t.Fatalf("Len = %d, want %d", restored.Len(), orig.Len())
	}
	for qi := int64(0); qi < 20; qi++ {
		query := unitVec(rand.New(rand.NewSource(500+qi)), dim)
		want, err := orig.Search(query, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.Search(query, k)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(want, got) {
			t.Fatalf("query %d: restored %+v, want %+v", qi, got, want)
		}
	}

	off := int8FlagOffset(t, raw)
	if raw[off] != 0 {
		t.Fatalf("int8 flag = %d, want 0", raw[off])
	}
	flagged := slices.Clone(raw)
	flagged[off] = 1
	old := New(dim, Config{Seed: 42})
	if err := loadSnapshotBytes(old, flagged); err == nil || !strings.Contains(err.Error(), "int8") {
		t.Fatalf("LoadSnapshot of a section with the int8 flag set: err = %v, want an int8 rejection", err)
	}
	if f, q := old.ArenaBytes(); old.Len() != 0 || f != 0 || q != 0 {
		t.Fatalf("rejected restore left Len %d, arenas %d/%d bytes", old.Len(), f, q)
	}
}

// TestQuantizeDegenerateVectors exercises the scale-0 paths: constant and
// all-zero vectors must quantize without NaN/Inf and remain searchable.
func TestQuantizeDegenerateVectors(t *testing.T) {
	const dim = 8
	ix := New(dim, Config{Seed: 3})
	constant := make([]float32, dim)
	for i := range constant {
		constant[i] = 0.5
	}
	zero := make([]float32, dim)
	varied := []float32{0.9, -0.2, 0.4, 0.1, -0.8, 0.3, 0.0, 0.7}
	for id, v := range map[string][]float32{"const": constant, "zero": zero, "varied": varied} {
		if err := addOne(ix, id, v); err != nil {
			t.Fatal(err)
		}
	}
	res, err := ix.Search(constant, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	if res[0].ID != "const" {
		t.Fatalf("top result %q, want the constant vector itself", res[0].ID)
	}
	for _, r := range res {
		if r.Score != r.Score || r.Score > 1.001 || r.Score < -1.001 {
			t.Fatalf("degenerate score out of range: %+v", r)
		}
	}

	// quantizeVec on a constant vector: zero codes, exact offset.
	dst := make([]int8, dim)
	scale, off, sum := quantizeVec(dst, constant)
	if scale != 0 || off != 0.5 || sum != 0 {
		t.Fatalf("constant vector: scale=%v off=%v sum=%v, want 0, 0.5, 0", scale, off, sum)
	}
	for _, c := range dst {
		if c != 0 {
			t.Fatalf("constant vector produced nonzero code %d", c)
		}
	}
}
