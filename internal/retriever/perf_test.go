package retriever

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"pneuma/internal/docs"
	"pneuma/internal/racebuild"
)

// perfCorpus builds a 300-document hybrid index for the allocation guard
// and the huge-k test.
func perfCorpus(tb testing.TB, opts ...Option) *Retriever {
	tb.Helper()
	r := New(opts...)
	ds := make([]docs.Document, 300)
	for i := range ds {
		ds[i] = docs.Document{
			ID: fmt.Sprintf("doc-%03d", i),
			Content: fmt.Sprintf(
				"river nitrate station sample %d measurement water quality basin sensor", i),
		}
	}
	if err := r.IndexDocuments(context.Background(), ds); err != nil {
		tb.Fatal(err)
	}
	return r
}

// hybridSearchAllocBudget is the committed per-query allocation ceiling for
// the steady-state hybrid Search fan-out: the query embedding, the
// per-shard goroutines, the per-shard result slices from both index halves
// and the returned document slice, plus headroom for the GC occasionally
// dropping the pooled scratch structures. The pre-optimization path
// allocated several hundred per query; a regression past this budget means
// per-query garbage crept back into one of the three layers.
const hybridSearchAllocBudget = 120

func TestSearchAllocsWithinBudget(t *testing.T) {
	r := perfCorpus(t, WithShards(4))
	for i := 0; i < 10; i++ {
		if _, err := r.Search(context.Background(), "nitrate water quality", 5); err != nil {
			t.Fatal(err)
		}
	}
	if racebuild.Enabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := r.Search(context.Background(), "nitrate water quality", 5); err != nil {
			t.Fatal(err)
		}
	})
	if avg > hybridSearchAllocBudget {
		t.Fatalf("steady-state hybrid Search allocates %.1f/op, budget is %d",
			avg, hybridSearchAllocBudget)
	}
}

// TestSearchHugeK: a k past the index size returns every document and
// costs what k = Len() costs. k sizes the per-shard over-fetch and the
// HNSW beam, so an unclamped k from a client allocates without bound (or
// panics in a fan-out goroutine once the beam size overflows).
func TestSearchHugeK(t *testing.T) {
	r := perfCorpus(t, WithShards(4))
	n := r.Len()
	// allocated is the least TotalAlloc growth over several calls: a race
	// build's sync.Pool drops pooled scratch at random, so a single call
	// may pay a refill another does not.
	allocated := func(k int) uint64 {
		least := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			out, err := r.Search(context.Background(), "nitrate water quality", k)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != n {
				t.Fatalf("Search(k=%d) returned %d documents, want Len() = %d", k, len(out), n)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	base := allocated(n)
	if huge := allocated(math.MaxInt); huge > 2*base {
		t.Fatalf("Search(k=MaxInt) allocated %d bytes, k=Len() %d", huge, base)
	}
}

func BenchmarkHybridSearch(b *testing.B) {
	r := perfCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Search(context.Background(), "nitrate water quality", 5); err != nil {
			b.Fatal(err)
		}
	}
}
