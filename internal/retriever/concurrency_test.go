package retriever

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"pneuma/internal/docs"
	"pneuma/internal/kramabench"
	"pneuma/internal/table"
)

// corpusSlice returns the synthetic corpus as a slice in map-iteration
// (i.e. effectively random) order.
func corpusSlice(n int) []*table.Table {
	corpus := kramabench.Synthetic(n)
	out := make([]*table.Table, 0, len(corpus))
	for _, t := range corpus {
		out = append(out, t)
	}
	return out
}

// searchKey flattens a result list into a comparable string of IDs and
// scores.
func searchKey(ds []docs.Document) string {
	s := ""
	for _, d := range ds {
		s += fmt.Sprintf("%s:%.12f;", d.ID, d.Score)
	}
	return s
}

var determinismQueries = []string{
	"freight container transit", "turbine output capacity factor",
	"warehouse stock reorder point", "rainfall station readings",
	"portfolio yield maturity", "clinic admission wait",
	"Malta region records", "vessel gross tonnage",
}

// TestParallelIngestDeterminism asserts the sharded index produces
// identical search results across repeated parallel bulk ingests of the
// same corpus, including ingests of permuted input and a fully sequential
// one-table-at-a-time build — worker scheduling, input order and ingest
// path must not leak into results.
func TestParallelIngestDeterminism(t *testing.T) {
	tables := corpusSlice(120)

	build := func(ingest func(r *Retriever)) *Retriever {
		r := New(WithShards(4), WithWorkers(4))
		ingest(r)
		return r
	}
	bulk := build(func(r *Retriever) {
		if err := r.IndexTables(context.Background(), tables); err != nil {
			t.Fatal(err)
		}
	})

	perm := make([]*table.Table, len(tables))
	copy(perm, tables)
	rand.New(rand.NewSource(1)).Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	permuted := build(func(r *Retriever) {
		if err := r.IndexTables(context.Background(), perm); err != nil {
			t.Fatal(err)
		}
	})

	// Sequential ingest in sorted-document order must match too: bulk
	// ingest sorts internally, so per-shard insertion order is identical.
	sortedDocs := make([]docs.Document, len(tables))
	for i, tb := range tables {
		sortedDocs[i] = docs.TableDocument(tb)
	}
	// IndexDocuments sorts by ID; replicate for the one-at-a-time path.
	sort.Slice(sortedDocs, func(i, j int) bool { return sortedDocs[i].ID < sortedDocs[j].ID })
	incremental := build(func(r *Retriever) {
		for _, d := range sortedDocs {
			if err := indexOne(r, context.Background(), d); err != nil {
				t.Fatal(err)
			}
		}
	})

	for _, q := range determinismQueries {
		want, err := bulk.Search(context.Background(), q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("query %q returned nothing", q)
		}
		for name, r := range map[string]*Retriever{"permuted": permuted, "incremental": incremental} {
			got, err := r.Search(context.Background(), q, 10)
			if err != nil {
				t.Fatal(err)
			}
			if searchKey(got) != searchKey(want) {
				t.Errorf("%s ingest diverged on %q:\n got %s\nwant %s", name, q, searchKey(got), searchKey(want))
			}
		}
	}
}

// TestRepeatedBulkIngestIdentical runs the same parallel bulk ingest
// several times and asserts bit-identical result sets every time.
func TestRepeatedBulkIngestIdentical(t *testing.T) {
	tables := corpusSlice(80)
	var want map[string]string
	for round := 0; round < 3; round++ {
		r := New(WithShards(4), WithWorkers(8))
		if err := r.IndexTables(context.Background(), tables); err != nil {
			t.Fatal(err)
		}
		got := make(map[string]string)
		for _, q := range determinismQueries {
			ds, err := r.Search(context.Background(), q, 10)
			if err != nil {
				t.Fatal(err)
			}
			got[q] = searchKey(ds)
		}
		if round == 0 {
			want = got
			continue
		}
		for q, key := range got {
			if key != want[q] {
				t.Errorf("round %d diverged on %q:\n got %s\nwant %s", round, q, key, want[q])
			}
		}
	}
}

// TestConcurrentSearchAndIngest hammers the sharded retriever with
// concurrent readers and writers; run under -race this is the data-race
// proof for the shard locking scheme.
func TestConcurrentSearchAndIngest(t *testing.T) {
	tables := corpusSlice(60)
	r := New(WithShards(4))
	if err := r.IndexTables(context.Background(), tables[:20]); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 64)

	// Writers: one bulk ingest, plus incremental single-table writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := r.IndexTables(context.Background(), tables[20:40]); err != nil {
			errCh <- err
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 40 + w; i < 60; i += 4 {
				if err := r.IndexTables(context.Background(), []*table.Table{tables[i]}); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	// Readers: concurrent searches and metadata reads while writers run.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				q := determinismQueries[(g+i)%len(determinismQueries)]
				if _, err := r.Search(context.Background(), q, 5); err != nil {
					errCh <- err
					return
				}
				r.Len()
				r.Version()
			}
		}(g)
	}
	// Deleter: remove and re-add a document under load.
	wg.Add(1)
	go func() {
		defer wg.Done()
		d := docs.TableDocument(tables[0])
		for i := 0; i < 10; i++ {
			deleteOne(r, d.ID)
			if err := indexOne(r, context.Background(), d); err != nil {
				errCh <- err
				return
			}
		}
	}()

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if got := r.Len(); got != 60 {
		t.Fatalf("after concurrent ingest Len = %d, want 60", got)
	}
	for _, q := range determinismQueries {
		ds, err := r.Search(context.Background(), q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(ds) == 0 {
			t.Fatalf("query %q returned nothing after concurrent ingest", q)
		}
	}
}

// TestVersionCounting asserts every mutation bumps the version and reads
// do not.
func TestVersionCounting(t *testing.T) {
	r := New(WithShards(2))
	v0 := r.Version()
	if err := indexOne(r, context.Background(), docs.Document{ID: "a", Content: "alpha doc"}); err != nil {
		t.Fatal(err)
	}
	if r.Version() == v0 {
		t.Fatal("IndexDocuments did not bump version")
	}
	v1 := r.Version()
	if _, err := r.Search(context.Background(), "alpha", 1); err != nil {
		t.Fatal(err)
	}
	r.Len()
	r.Document("a")
	if r.Version() != v1 {
		t.Fatal("reads must not bump version")
	}
	if !deleteOne(r, "a") {
		t.Fatal("delete failed")
	}
	if r.Version() == v1 {
		t.Fatal("DeleteDocuments did not bump version")
	}
}

// TestShardPartitioning asserts documents spread across shards and stay
// routable.
func TestShardPartitioning(t *testing.T) {
	tables := corpusSlice(64)
	r := New(WithShards(4))
	if err := r.IndexTables(context.Background(), tables); err != nil {
		t.Fatal(err)
	}
	if r.NumShards() != 4 {
		t.Fatalf("NumShards = %d", r.NumShards())
	}
	occupied := 0
	for _, s := range r.shards {
		if s.mem.Len() > 0 {
			occupied++
		}
	}
	if occupied < 2 {
		t.Fatalf("hash partitioning degenerate: only %d of 4 shards occupied", occupied)
	}
	for _, tb := range tables {
		if _, ok := r.Document("table:" + tb.Schema.Name); !ok {
			t.Fatalf("document for %s not routable", tb.Schema.Name)
		}
	}
	if r.Len() != 64 {
		t.Fatalf("Len = %d, want 64", r.Len())
	}
}
