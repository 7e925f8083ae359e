package hnsw

import (
	"fmt"
	"math/rand"
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

// buildPair populates an unquantized and a quantized index with the same
// deterministic corpus and returns them alongside the raw vectors by ID.
func buildPair(t *testing.T, dim, n int) (base, quant *Index, vecs map[string][]float32) {
	t.Helper()
	base = New(dim, Config{Seed: 42})
	quant = New(dim, Config{Seed: 42, Quantize: true})
	vecs = make(map[string][]float32, n)
	rng := rand.New(rand.NewSource(2026))
	for i := 0; i < n; i++ {
		vec := unitVec(rng, dim)
		id := fmt.Sprintf("v%04d", i)
		vecs[id] = vec
		if err := addOne(base, id, vec); err != nil {
			t.Fatal(err)
		}
		if err := addOne(quant, id, vec); err != nil {
			t.Fatal(err)
		}
	}
	return base, quant, vecs
}

// TestQuantizedRecallAndExactScores is the speed tier's accuracy contract:
// over a 1k corpus, quantized top-10 overlaps unquantized top-10 at ≥0.98
// average recall, and every score the quantized path returns is the exact
// float32 cosine — bit-identical to what the unquantized path would assign
// that document — so quantization can reorder only by changing which
// candidates reach the rescore set, never the numbers attached to them.
func TestQuantizedRecallAndExactScores(t *testing.T) {
	const dim, n, k, queries = 64, 1000, 10, 50
	base, quant, vecs := buildPair(t, dim, n)

	var hit, total int
	for qi := int64(0); qi < queries; qi++ {
		query := unitVec(rand.New(rand.NewSource(1000+qi)), dim)
		qNorm := vecmath.Norm(query)
		exact, err := base.Search(query, k)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := quant.Search(query, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(approx) != k {
			t.Fatalf("query %d: quantized returned %d results, want %d", qi, len(approx), k)
		}
		want := make(map[string]bool, k)
		for _, r := range exact {
			want[r.ID] = true
		}
		for _, r := range approx {
			if want[r.ID] {
				hit++
			}
			// Exact-rescore contract: the returned score is the float32
			// cosine of the stored vector, not a dequantized estimate.
			ref := vecmath.CosineWithNorms(query, vecs[r.ID], qNorm, vecmath.Norm(vecs[r.ID]))
			if r.Score != ref {
				t.Fatalf("query %d: score for %s = %v, exact cosine %v", qi, r.ID, r.Score, ref)
			}
		}
		total += k
	}
	recall := float64(hit) / float64(total)
	t.Logf("recall@%d over %d queries: %.4f", k, queries, recall)
	if recall < 0.98 {
		t.Fatalf("recall@%d = %.4f, want >= 0.98", k, recall)
	}
}

// TestQuantizedArenaRatio pins the memory claim: at the embedder's
// dimensionality the complete int8 side (codes + per-vector constants)
// costs at most 30% of the float32 arena.
func TestQuantizedArenaRatio(t *testing.T) {
	const dim, n = 256, 200
	ix := New(dim, Config{Seed: 7, Quantize: true})
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

// TestQuantizedSnapshotRoundTrip restores a quantized snapshot and checks
// searches stay bit-identical; then cross-restores an unquantized snapshot
// into a quantized index (requantize path) and a quantized snapshot into
// an unquantized index (arenas dropped) and checks each behaves exactly
// like a directly built index of that configuration.
func TestQuantizedSnapshotRoundTrip(t *testing.T) {
	const dim, n, k = 32, 300, 10
	base, quant, _ := buildPair(t, dim, n)
	for i := 0; i < n; i += 9 {
		id := fmt.Sprintf("v%04d", i)
		deleteOne(base, id)
		deleteOne(quant, id)
	}

	var wq, wb wire.Writer
	quant.AppendSnapshot(&wq)
	base.AppendSnapshot(&wb)

	check := func(name string, want, got *Index) {
		t.Helper()
		if got.Len() != want.Len() {
			t.Fatalf("%s: Len = %d, want %d", name, got.Len(), want.Len())
		}
		for qi := int64(0); qi < 20; qi++ {
			query := unitVec(rand.New(rand.NewSource(500+qi)), dim)
			a, err := want.Search(query, k)
			if err != nil {
				t.Fatal(err)
			}
			b, err := got.Search(query, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(a) != len(b) {
				t.Fatalf("%s: query %d: %d vs %d results", name, qi, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s: query %d rank %d: %+v vs %+v", name, qi, i, a[i], b[i])
				}
			}
		}
	}

	// Quantized snapshot → quantized index: arenas adopted wholesale.
	rq := New(dim, Config{Seed: 42, Quantize: true})
	if err := rq.LoadSnapshot(wire.NewSharedReader(wq.Bytes())); err != nil {
		t.Fatal(err)
	}
	check("quant->quant", quant, rq)

	// Unquantized snapshot → quantized index: int8 arenas rebuilt from the
	// float32 arena; quantizeVec is deterministic so results must match a
	// quantized index built by inserts.
	rr := New(dim, Config{Seed: 42, Quantize: true})
	if err := rr.LoadSnapshot(wire.NewSharedReader(wb.Bytes())); err != nil {
		t.Fatal(err)
	}
	check("plain->quant (requantize)", quant, rr)

	// Quantized snapshot → unquantized index: quantized arenas are parsed
	// and dropped; behaves exactly like the unquantized original.
	rp := New(dim, Config{Seed: 42})
	if err := rp.LoadSnapshot(wire.NewSharedReader(wq.Bytes())); err != nil {
		t.Fatal(err)
	}
	check("quant->plain", base, rp)
}

// TestQuantizeDegenerateVectors exercises the scale-0 paths: constant and
// all-zero vectors must quantize without NaN/Inf and remain searchable.
func TestQuantizeDegenerateVectors(t *testing.T) {
	const dim = 8
	ix := New(dim, Config{Seed: 3, Quantize: true})
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

// TestQuantizedGraphIdentical verifies the construction contract: the
// graph (links, levels, entry point) is bit-identical with Quantize on and
// off, because construction always runs on float32 distances.
func TestQuantizedGraphIdentical(t *testing.T) {
	const dim, n = 16, 200
	baseIx, quantIx, _ := buildPair(t, dim, n)
	base, quant := baseIx.view.Load(), quantIx.view.Load()
	if base.entry != quant.entry || base.maxLvl != quant.maxLvl {
		t.Fatalf("entry/maxLvl diverge: (%d,%d) vs (%d,%d)", base.entry, base.maxLvl, quant.entry, quant.maxLvl)
	}
	for i := range base.links {
		if len(base.links[i]) != len(quant.links[i]) {
			t.Fatalf("node %d: layer count %d vs %d", i, len(base.links[i]), len(quant.links[i]))
		}
		for l := range base.links[i] {
			a, b := base.links[i][l], quant.links[i][l]
			if len(a) != len(b) {
				t.Fatalf("node %d layer %d: %d vs %d links", i, l, len(a), len(b))
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("node %d layer %d link %d: %d vs %d", i, l, j, a[j], b[j])
				}
			}
		}
	}
}
