package retriever

import (
	"context"
	"fmt"
	"testing"

	"pneuma/internal/docs"
	"pneuma/internal/racebuild"
)

// perfCorpus builds a 300-document hybrid index for the allocation guard
// and the Ef-knob tests.
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

// TestWithEfKnob verifies the beam width plumbs through to the shards and
// that widening it never loses results on a corpus smaller than the beam.
func TestWithEfKnob(t *testing.T) {
	if got := perfCorpus(t).Ef(); got != 64 {
		t.Fatalf("default Ef = %d, want 64", got)
	}
	wide := perfCorpus(t, WithEf(256))
	if got := wide.Ef(); got != 256 {
		t.Fatalf("Ef = %d, want 256", got)
	}
	narrow := perfCorpus(t, WithEf(1)) // clamped to ≥ k per query
	for _, r := range []*Retriever{wide, narrow} {
		out, err := r.Search(context.Background(), "nitrate water quality", 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 5 {
			t.Fatalf("Search with ef=%d returned %d results, want 5", r.Ef(), len(out))
		}
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

// BenchmarkHybridSearchQuantized is BenchmarkHybridSearch with the int8
// speed tier on: same corpus and query, traversal on the quantized arena
// plus the exact rescoring pass. Compare against BenchmarkHybridSearch
// for the tier's end-to-end cost delta.
func BenchmarkHybridSearchQuantized(b *testing.B) {
	r := perfCorpus(b, WithQuantize(true))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Search(context.Background(), "nitrate water quality", 5); err != nil {
			b.Fatal(err)
		}
	}
}
