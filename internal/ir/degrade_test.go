package ir

import (
	"context"
	"errors"
	"testing"

	"pneuma/internal/docdb"
	"pneuma/internal/kramabench"
	"pneuma/internal/pnerr"
	"pneuma/internal/retriever"
	"pneuma/internal/table"
)

// degradedFixture builds a System whose table source can be killed (by
// closing the retriever) while the knowledge source keeps answering.
func degradedFixture(t *testing.T) (*System, *retriever.Retriever, *docdb.DB) {
	t.Helper()
	ctx := context.Background()
	ret := retriever.New(retriever.WithShards(2))
	for _, tb := range kramabench.Archaeology() {
		if err := ret.IndexTables(ctx, []*table.Table{tb}); err != nil {
			t.Fatal(err)
		}
	}
	kb := docdb.New()
	if _, err := kb.Save(ctx, "potassium", "potassium should be interpolated between samples", "alice"); err != nil {
		t.Fatal(err)
	}
	return New(ret, kb, nil), ret, kb
}

// TestQueryPartialFusion: one erroring source must not discard the other
// sources' good results — the query degrades, returns the surviving
// fusion, and surfaces the per-source failure on Result.Degraded.
func TestQueryPartialFusion(t *testing.T) {
	s, ret, _ := degradedFixture(t)
	ctx := context.Background()

	// Kill the tables source.
	if err := ret.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query(ctx, Request{Query: "potassium interpolation in soil", K: 5})
	if err != nil {
		t.Fatalf("partially failed query returned error %v; want degraded success", err)
	}
	if len(res.Documents) == 0 {
		t.Fatal("degraded query returned no documents; knowledge source results were discarded")
	}
	for _, d := range res.Documents {
		if d.Table != nil {
			t.Errorf("degraded query returned a table doc %s from the dead source", d.ID)
		}
	}
	if res.Degraded == nil {
		t.Fatal("Result.Degraded is nil; the per-source failure was swallowed")
	}
	if !errors.Is(res.Degraded, pnerr.ErrClosed) {
		t.Errorf("Degraded = %v, want the tables source's ErrClosed in the join", res.Degraded)
	}
}

// TestQueryAllSourcesFailed: when every selected source fails the query
// itself fails, with ErrDegraded wrapping the per-source errors.
func TestQueryAllSourcesFailed(t *testing.T) {
	s, ret, _ := degradedFixture(t)
	if err := ret.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := s.Query(context.Background(), Request{
		Query:   "potassium",
		Sources: []Source{SourceTables},
	})
	if !errors.Is(err, pnerr.ErrDegraded) {
		t.Fatalf("all-sources-failed query = %v, want ErrDegraded", err)
	}
	if !errors.Is(err, pnerr.ErrClosed) {
		t.Fatalf("err = %v, want the source's ErrClosed preserved in the chain", err)
	}
}

// TestQueryDegradedNotCached: a degraded result must not be served from
// the cache once the failing source recovers. Recovery is simulated by
// querying with a fresh System over a live retriever but the same cache
// key inputs — here we just assert the cache stays empty after a degraded
// query.
func TestQueryDegradedNotCached(t *testing.T) {
	s, ret, _ := degradedFixture(t)
	if err := ret.Close(); err != nil {
		t.Fatal(err)
	}
	before := s.cache.len()
	if _, err := s.Query(context.Background(), Request{Query: "potassium interpolation", K: 5}); err != nil {
		t.Fatal(err)
	}
	if got := s.cache.len(); got != before {
		t.Fatalf("degraded query entered the cache (len %d -> %d)", before, got)
	}
}

// TestQueryCanceled: cancellation beats the fan-out and returns the typed
// error.
func TestQueryCanceled(t *testing.T) {
	s, _, _ := degradedFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.Query(ctx, Request{Query: "potassium", K: 3})
	if !errors.Is(err, pnerr.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled query = %v, want ErrCanceled wrapping context.Canceled", err)
	}
}

// TestQueryBadSource: an unknown source is a typed bad query.
func TestQueryBadSource(t *testing.T) {
	s, _, _ := degradedFixture(t)
	_, err := s.Query(context.Background(), Request{Query: "x", Sources: []Source{"bogus"}})
	if !errors.Is(err, pnerr.ErrBadQuery) {
		t.Fatalf("bogus source = %v, want ErrBadQuery", err)
	}
}
