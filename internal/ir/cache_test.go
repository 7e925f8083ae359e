package ir

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"pneuma/internal/docdb"
	"pneuma/internal/docs"
	"pneuma/internal/retriever"
	"pneuma/internal/table"
	"pneuma/internal/value"
)

// mkTable builds a minimal searchable table.
func mkTable(name, desc, colDesc string) *table.Table {
	t := table.New(table.Schema{
		Name:        name,
		Description: desc,
		Columns:     []table.Column{{Name: "v", Type: value.KindFloat, Description: colDesc}},
	})
	t.MustAppend(table.Row{value.Float(1)})
	return t
}

func TestRRFFusionAcrossSources(t *testing.T) {
	ret := retriever.New()
	if err := ret.IndexTables(context.Background(), []*table.Table{mkTable("potassium_levels", "Potassium measurements", "potassium concentration")}); err != nil {
		t.Fatal(err)
	}
	kb := docdb.New()
	if _, err := kb.Save(context.Background(), "potassium", "potassium should be interpolated", "alice"); err != nil {
		t.Fatal(err)
	}
	s := New(ret, kb, nil)
	res, err := s.Query(context.Background(), Request{Query: "potassium", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Documents) < 2 {
		t.Fatalf("want table + knowledge hits, got %v", res.Documents)
	}
	// Each source's rank-1 document must carry the RRF score 1/(60+1);
	// the old scheme overwrote scores with 1/(i+1) so every source's top
	// hit tied at 1.0 regardless of relevance.
	want := 1.0 / 61.0
	for _, d := range res.Documents[:2] {
		if d.Score != want {
			t.Errorf("doc %s score = %v, want %v", d.ID, d.Score, want)
		}
	}
	// Deterministic tie-break: equal scores order by ID.
	if res.Documents[0].ID > res.Documents[1].ID {
		t.Errorf("tie not broken by ID: %s before %s", res.Documents[0].ID, res.Documents[1].ID)
	}
}

func TestQueryCacheHitAndCopy(t *testing.T) {
	s := fixtureSystem(t)
	if s.CacheLen() != 0 {
		t.Fatalf("fresh system has %d cache entries", s.CacheLen())
	}
	res1, err := s.Query(context.Background(), Request{Query: "potassium samples", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if s.CacheLen() != 1 {
		t.Fatalf("cache len = %d after first query", s.CacheLen())
	}
	res2, err := s.Query(context.Background(), Request{Query: "potassium samples", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if s.CacheLen() != 1 {
		t.Fatalf("cache len = %d after repeat query", s.CacheLen())
	}
	if len(res1.Documents) != len(res2.Documents) {
		t.Fatalf("cached result differs: %d vs %d docs", len(res1.Documents), len(res2.Documents))
	}
	for i := range res1.Documents {
		if res1.Documents[i].ID != res2.Documents[i].ID || res1.Documents[i].Score != res2.Documents[i].Score {
			t.Fatalf("cached result diverged at %d", i)
		}
	}
	// The cache must hand out copies: mutating a result must not corrupt
	// later hits.
	res2.Documents[0].Score = -1
	res3, _ := s.Query(context.Background(), Request{Query: "potassium samples", K: 3})
	if res3.Documents[0].Score == -1 {
		t.Fatal("cache returned aliased slice")
	}
}

func TestCacheInvalidationOnMutation(t *testing.T) {
	ret := retriever.New()
	if err := ret.IndexTables(context.Background(), []*table.Table{mkTable("soil_samples", "Soil chemistry", "potassium concentration")}); err != nil {
		t.Fatal(err)
	}
	kb := docdb.New()
	s := New(ret, kb, nil)

	res, err := s.Query(context.Background(), Request{Query: "potassium interpolation", K: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Documents {
		if d.Kind == docs.KindKnowledge {
			t.Fatal("no knowledge saved yet")
		}
	}
	// Mutate one source; the cached entry must not be served.
	if _, err := kb.Save(context.Background(), "potassium interpolation", "potassium should be interpolated between samples", "bob"); err != nil {
		t.Fatal(err)
	}
	res, err = s.Query(context.Background(), Request{Query: "potassium interpolation", K: 5})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range res.Documents {
		if d.Kind == docs.KindKnowledge {
			found = true
		}
	}
	if !found {
		t.Fatal("stale cache entry served after knowledge save")
	}

	// Table-index mutation invalidates too.
	if err := ret.IndexTables(context.Background(), []*table.Table{mkTable("potassium_extra", "Extra potassium data", "potassium reading")}); err != nil {
		t.Fatal(err)
	}
	res, _ = s.Query(context.Background(), Request{Query: "potassium interpolation", K: 5})
	seen := false
	for _, d := range res.Documents {
		if d.ID == "table:potassium_extra" {
			seen = true
		}
	}
	if !seen {
		t.Fatal("stale cache entry served after table ingest")
	}
}

// TestCacheEviction: one distinct query past the capacity evicts, so the
// cache never holds more than DefaultCacheSize entries.
func TestCacheEviction(t *testing.T) {
	ret := retriever.New()
	if err := ret.IndexTables(context.Background(), []*table.Table{mkTable("t1", "data", "metric")}); err != nil {
		t.Fatal(err)
	}
	s := New(ret, nil, nil)
	for i := 0; i <= DefaultCacheSize; i++ {
		if _, err := s.Query(context.Background(), Request{Query: fmt.Sprintf("query %d", i), K: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if s.CacheLen() != DefaultCacheSize {
		t.Fatalf("cache len = %d, want capacity %d", s.CacheLen(), DefaultCacheSize)
	}
}

// TestChurnCacheInvalidation drives the version-counter invalidation
// through sustained churn: every round replaces one table (add + delete)
// and immediately repeats the same query. Each mutation must bump the
// source version and therefore miss the cache — a single missed bump
// serves a stale entry that either still shows the deleted table or
// misses the added one. A second, concurrent phase (readers racing the
// churn stream, run under race-smoke) then checks the quiesce contract:
// once the stream stops, the next repeat query reflects the final corpus
// exactly.
func TestChurnCacheInvalidation(t *testing.T) {
	ctx := context.Background()
	ret := retriever.New()
	if err := ret.IndexTables(ctx, []*table.Table{mkTable("base", "base data", "churn metric baseline")}); err != nil {
		t.Fatal(err)
	}
	s := New(ret, nil, nil)
	const q = "churn metric"

	rounds := 30
	if testing.Short() {
		rounds = 10
	}
	for r := 0; r < rounds; r++ {
		name := fmt.Sprintf("churn_%d", r)
		if err := ret.IndexTables(ctx, []*table.Table{mkTable(name, "churn data", "churn metric reading")}); err != nil {
			t.Fatal(err)
		}
		if r > 0 {
			prev := fmt.Sprintf("table:churn_%d", r-1)
			if n := ret.DeleteDocuments([]string{prev}); n != 1 {
				t.Fatalf("round %d: deleted %d of %s", r, n, prev)
			}
		}
		res, err := s.Query(ctx, Request{Query: q, K: 10})
		if err != nil {
			t.Fatal(err)
		}
		var sawNew, sawOld bool
		for _, d := range res.Documents {
			switch d.ID {
			case "table:" + name:
				sawNew = true
			case fmt.Sprintf("table:churn_%d", r-1):
				sawOld = true
			}
		}
		if !sawNew {
			t.Fatalf("round %d: stale cache — added table %s not in results", r, name)
		}
		if sawOld {
			t.Fatalf("round %d: stale cache — deleted table churn_%d still served", r, r-1)
		}
	}

	// Concurrent phase: readers hammer the cached query while a churner
	// keeps replacing tables, then quiesce and check the final state.
	stopped := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopped:
					return
				default:
				}
				if _, err := s.Query(ctx, Request{Query: q, K: 10}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	last := rounds - 1
	for r := rounds; r < rounds+10; r++ {
		name := fmt.Sprintf("churn_%d", r)
		if err := ret.IndexTables(ctx, []*table.Table{mkTable(name, "churn data", "churn metric reading")}); err != nil {
			t.Fatal(err)
		}
		ret.DeleteDocuments([]string{fmt.Sprintf("table:churn_%d", last)})
		last = r
	}
	close(stopped)
	wg.Wait()

	res, err := s.Query(ctx, Request{Query: q, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	var sawFinal bool
	for _, d := range res.Documents {
		if d.ID == fmt.Sprintf("table:churn_%d", last) {
			sawFinal = true
		}
		for r := 0; r < last; r++ {
			if d.ID == fmt.Sprintf("table:churn_%d", r) {
				t.Fatalf("post-quiesce query served deleted table churn_%d", r)
			}
		}
	}
	if !sawFinal {
		t.Fatalf("post-quiesce query missing final table churn_%d", last)
	}
}

// TestConcurrentQueriesAndMutations is the -race proof for the facade:
// concurrent queries, knowledge saves and table ingests must not race in
// the cache or the fan-out.
func TestConcurrentQueriesAndMutations(t *testing.T) {
	ret := retriever.New()
	if err := ret.IndexTables(context.Background(), []*table.Table{mkTable("base", "base data", "baseline metric")}); err != nil {
		t.Fatal(err)
	}
	kb := docdb.New()
	s := New(ret, kb, nil)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := s.Query(context.Background(), Request{Query: fmt.Sprintf("metric %d", (g+i)%3), K: 3}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := kb.Save(context.Background(), "note", fmt.Sprintf("knowledge body %d", i), "x"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := ret.IndexTables(context.Background(), []*table.Table{mkTable(fmt.Sprintf("t%d", i), "more data", "another metric")}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}
