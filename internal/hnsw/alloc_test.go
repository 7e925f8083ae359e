package hnsw

import (
	"fmt"
	"math/rand"
	"testing"

	"pneuma/internal/racebuild"
)

// allocIndex builds a 400-vector index for the allocation and benchmark
// tests.
func allocIndex(tb testing.TB, dim int) (*Index, []float32) {
	tb.Helper()
	rng := rand.New(rand.NewSource(42))
	ix := New(dim, Config{Seed: 3})
	for i := 0; i < 400; i++ {
		if err := addOne(ix, fmt.Sprintf("v-%03d", i), randomUnit(rng, dim)); err != nil {
			tb.Fatal(err)
		}
	}
	return ix, randomUnit(rng, dim)
}

// searchAllocBudget is the committed per-query allocation ceiling for
// steady-state Search: the returned result slice, plus headroom for the GC
// occasionally dropping the pooled scratch (see the package comment). A
// regression past this budget means per-query garbage crept back into the
// beam search.
const searchAllocBudget = 4

func TestSearchAllocsWithinBudget(t *testing.T) {
	ix, query := allocIndex(t, 32)
	// Warm the scratch pool so the measured runs see steady state.
	for i := 0; i < 10; i++ {
		if _, err := ix.Search(query, 10); err != nil {
			t.Fatal(err)
		}
	}
	if racebuild.Enabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := ix.Search(query, 10); err != nil {
			t.Fatal(err)
		}
	})
	if avg > searchAllocBudget {
		t.Fatalf("steady-state Search allocates %.1f/op, budget is %d", avg, searchAllocBudget)
	}
}

func BenchmarkSearch(b *testing.B) {
	ix, query := allocIndex(b, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Search(query, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchQuantized is BenchmarkSearch on the int8 speed tier:
// same corpus and query, traversal on the quantized arena plus the exact
// float32 rescoring pass. Compare against BenchmarkSearch to see the
// tier's per-query cost delta at cache-resident scale.
func BenchmarkSearchQuantized(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	ix := New(32, Config{Seed: 3, Quantize: true})
	for i := 0; i < 400; i++ {
		if err := addOne(ix, fmt.Sprintf("v-%03d", i), randomUnit(rng, 32)); err != nil {
			b.Fatal(err)
		}
	}
	query := randomUnit(rng, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Search(query, 10); err != nil {
			b.Fatal(err)
		}
	}
}
