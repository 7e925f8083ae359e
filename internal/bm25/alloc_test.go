package bm25

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"pneuma/internal/racebuild"
	"pneuma/internal/textutil"
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

// addBatchAllocsPerPostingBudget is the committed ceiling on the
// allocations one AddBatch makes per posting it adds to a touched term,
// beyond tokenizing: posting lists grow by doubling, and each touched list's
// header is stored once per batch. Storing a header per posting read 1.01;
// one header per touched term reads 0.010 (linux/amd64, Go 1.24).
const addBatchAllocsPerPostingBudget = 0.05

// TestAddBatchAllocsWithinBudget adds 50 and then 400 documents over the
// same 20 terms in one batch: the postings grow eightfold, the terms do not,
// so the allocations beyond tokenizing must barely move.
func TestAddBatchAllocsWithinBudget(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const terms = 20
	allocs := func(ndocs int) float64 {
		ids := make([]string, ndocs)
		texts := make([]string, ndocs)
		for i := range ids {
			var b strings.Builder
			for j := 0; j < terms; j++ {
				fmt.Fprintf(&b, "column%d ", j)
			}
			ids[i], texts[i] = fmt.Sprintf("t%03d", i), b.String()
		}
		tokenize := testing.AllocsPerRun(5, func() {
			for _, text := range texts {
				textutil.NormalizeTokens(text)
			}
		})
		return testing.AllocsPerRun(5, func() { New(Params{}).AddBatch(ids, texts) }) - tokenize
	}
	small, large := allocs(50), allocs(400)
	per := (large - small) / (350 * terms)
	t.Logf("AddBatch: %.0f allocations at 50 documents, %.0f at 400: %.3f per added posting", small, large, per)
	if per > addBatchAllocsPerPostingBudget {
		t.Fatalf("AddBatch allocates %.3f times per posting, budget is %.2f", per, addBatchAllocsPerPostingBudget)
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

// retainedBytesPerPostingBudget is the committed ceiling on the heap an
// index retains per posting, measured by TestIndexRetainedBytesPerPosting:
// its reading (45.1 on linux/amd64, Go 1.24; 46.4 since each term's list
// keeps the writer's pending header, termPostings.next) plus 25%. A posting
// costs 8 bytes in its list and 8 in its document's term list; the rest is
// list growth slack, the document table, the term table and the
// statistics, spread over the postings. Per-document term strings and token-sized
// term slices read 85.6.
const retainedBytesPerPostingBudget = 56

// TestIndexRetainedBytesPerPosting holds what an index keeps on the heap,
// per posting, after a 2 000-document ingest: the in-use heap it adds,
// with every transient (token slices, per-batch scratch) collected. A
// regression here means per-document state went back to holding term
// strings, or a token-count-sized slice outlived its batch.
func TestIndexRetainedBytesPerPosting(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("race instrumentation changes heap sizes")
	}
	const ndocs, batch = 2000, 50
	ids := make([]string, ndocs)
	texts := make([]string, ndocs)
	for i := range ids {
		// Table-like documents: column names from a small schema
		// vocabulary, and cell values from a larger pool, some repeated
		// within the document.
		var b strings.Builder
		for j := 0; j < 20; j++ {
			fmt.Fprintf(&b, "column%d ", (i*7+j*13)%400)
		}
		for j := 0; j < 12; j++ {
			fmt.Fprintf(&b, "v%d ", (i*31+j%9*17)%5000)
		}
		ids[i] = fmt.Sprintf("table-%04d", i)
		texts[i] = b.String()
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ix := New(Params{})
	for i := 0; i < ndocs; i += batch {
		ix.AddBatch(ids[i:i+batch], texts[i:i+batch])
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	postings := 0
	for _, d := range ix.view.Load().docs {
		postings += len(d.tf)
	}
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(postings)
	t.Logf("%d postings, %.1f retained bytes per posting", postings, per)
	if per > retainedBytesPerPostingBudget {
		t.Fatalf("index retains %.1f bytes per posting, budget is %d", per, retainedBytesPerPostingBudget)
	}
	runtime.KeepAlive(ix)
	runtime.KeepAlive(texts)
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
