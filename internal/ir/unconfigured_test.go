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

// unconfiguredFixture builds a System with tables and knowledge but no web
// engine.
func unconfiguredFixture(t *testing.T) *System {
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
	return New(ret, kb, nil)
}

// TestQueryExplicitUnconfiguredSourceDegrades: naming a source the System
// has no retriever for must degrade the query — surviving sources fuse and
// the join names the missing source — instead of silently answering with
// less than was asked for.
func TestQueryExplicitUnconfiguredSourceDegrades(t *testing.T) {
	s := unconfiguredFixture(t)
	res, err := s.Query(context.Background(), Request{
		Query:   "potassium interpolation in soil",
		K:       5,
		Sources: []Source{SourceTables, SourceWeb},
	})
	if err != nil {
		t.Fatalf("Query = %v; want degraded success", err)
	}
	if res.Degraded == nil {
		t.Fatal("Result.Degraded is nil; the unconfigured web source was silently skipped")
	}
	if !errors.Is(res.Degraded, errNotConfigured) {
		t.Errorf("Degraded = %v, want errNotConfigured in the join", res.Degraded)
	}
	if len(res.Documents) == 0 {
		t.Fatal("degraded query returned no documents from the configured sources")
	}
}

// TestQueryAllUnconfiguredSourcesFail: when every explicitly named source
// is unconfigured there is nothing to fuse — the query fails with a typed
// ErrDegraded, mirroring the all-sources-errored contract.
func TestQueryAllUnconfiguredSourcesFail(t *testing.T) {
	s := unconfiguredFixture(t)
	_, err := s.Query(context.Background(), Request{
		Query:   "potassium",
		Sources: []Source{SourceWeb},
	})
	if !errors.Is(err, pnerr.ErrDegraded) {
		t.Fatalf("Query over only unconfigured sources = %v, want ErrDegraded", err)
	}
}

// TestQueryDefaultFanOutStaysSilent: the default all-sources fan-out must
// keep treating a nil source as absent, not failed — a tables-only System
// is a configuration, not a degradation.
func TestQueryDefaultFanOutStaysSilent(t *testing.T) {
	s := unconfiguredFixture(t)
	res, err := s.Query(context.Background(), Request{Query: "potassium interpolation in soil", K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != nil {
		t.Fatalf("default fan-out degraded on a nil source: %v", res.Degraded)
	}
	if len(res.Documents) == 0 {
		t.Fatal("default fan-out returned no documents")
	}
}
