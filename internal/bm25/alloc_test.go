package bm25

import (
	"fmt"
	"testing"

	"pneuma/internal/racebuild"
)

// allocIndex builds a 300-document index for the allocation and benchmark
// tests.
func allocIndex(tb testing.TB) *Index {
	tb.Helper()
	ix := New(Params{})
	for i := 0; i < 300; i++ {
		addOne(ix, fmt.Sprintf("doc-%03d", i),
			fmt.Sprintf("river nitrate station sample %d measurement water quality basin sensor", i))
	}
	return ix
}

// searchAllocBudget is the committed per-query allocation ceiling for
// steady-state Search: query tokenization (token slice plus the
// per-token strings NormalizeTokens builds), the returned result slice,
// and headroom for the GC occasionally dropping the pooled scratch. A
// regression past this budget means the dense accumulator or the bounded
// top-k heap stopped being reused.
const searchAllocBudget = 16

func TestSearchAllocsWithinBudget(t *testing.T) {
	ix := allocIndex(t)
	for i := 0; i < 10; i++ {
		ix.Search("nitrate water quality", 10)
	}
	if racebuild.Enabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	avg := testing.AllocsPerRun(200, func() {
		if got := ix.Search("nitrate water quality", 10); len(got) == 0 {
			t.Fatal("query must match")
		}
	})
	if avg > searchAllocBudget {
		t.Fatalf("steady-state Search allocates %.1f/op, budget is %d", avg, searchAllocBudget)
	}
}

// TestLiveDocFreqTracking pins the incremental document-frequency counters
// against the ground truth a posting-list scan would compute, across adds,
// deletes and replacements.
func TestLiveDocFreqTracking(t *testing.T) {
	ix := New(Params{})
	addOne(ix, "a", "nitrate river")
	addOne(ix, "b", "nitrate basin")
	addOne(ix, "c", "river basin")
	check := func(term string, want int) {
		t.Helper()
		v := ix.view.Load()
		scan := 0
		if slot, ok := v.termSlot(term); ok {
			for _, p := range v.postings(slot) {
				if !v.docs[p.doc].deleted {
					scan++
				}
			}
		}
		if got := v.stats.DocFreq(term); got != want || scan != want {
			t.Fatalf("df[%q] = %d (posting scan %d), want %d", term, got, scan, want)
		}
	}
	check("nitrate", 2)
	check("river", 2)
	deleteOne(ix, "a")
	check("nitrate", 1)
	check("river", 1)
	addOne(ix, "b", "river only now") // replacement drops old terms
	check("nitrate", 0)
	check("basin", 1)
	check("river", 2)
}

func BenchmarkSearch(b *testing.B) {
	ix := allocIndex(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := ix.Search("nitrate water quality sensor", 10); len(got) == 0 {
			b.Fatal("query must match")
		}
	}
}
