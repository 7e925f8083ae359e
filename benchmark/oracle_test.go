package main

import (
	"context"
	"strings"
	"testing"

	"pneuma/internal/table"
	"pneuma/internal/value"
)

func TestOracleOrderIsScoreThenID(t *testing.T) {
	o := &oracle{ids: []string{"table:c", "table:a", "table:b", "table:d"}}
	var best []ranked
	for d, s := range []float64{0.5, 0.5, 0.9, 0.1} {
		best = o.keep(best, 3, ranked{d, s})
	}
	got := []string{}
	for _, r := range best {
		got = append(got, o.ids[r.doc])
	}
	if want := "table:b table:a table:c"; strings.Join(got, " ") != want {
		t.Errorf("kept %v, want %s", got, want)
	}
}

// Three tiny documents whose rankings can be worked out by hand: "alpha"
// occurs only in one, so BM25 and cosine both put it first for the query
// "alpha", and documents without any overlap get no lexical rank at all.
func TestOracleOnHandCheckedCorpus(t *testing.T) {
	mk := func(name, desc string) *table.Table {
		tb := table.New(table.Schema{Name: name, Description: desc, Columns: []table.Column{{Name: "v", Type: value.KindInt, Description: desc}}})
		tb.MustAppend(table.Row{value.Int(1)})
		return tb
	}
	o := newOracle([]*table.Table{mk("one", "alpha beta"), mk("two", "beta gamma"), mk("three", "gamma delta")})
	if got := o.byBM25("alpha", 10); len(got) != 1 || o.ids[got[0].doc] != "table:one" {
		t.Errorf("BM25 for alpha = %v", got)
	}
	if got := o.byBM25("beta", 10); len(got) != 2 {
		t.Errorf("BM25 for beta ranked %d documents, want the two that hold it", len(got))
	}
	if got := o.top("alpha", 2); got[0] != "table:one" {
		t.Errorf("top for alpha = %v", got)
	}
	if got := o.byCosine("gamma delta", 3); o.ids[got[0].doc] != "table:three" || got[0].score <= got[1].score {
		t.Errorf("cosine for gamma delta = %v", got)
	}
	if r := recall([]string{"a", "b", "x"}, []string{"a", "b", "c", "d"}); r != 0.5 {
		t.Errorf("recall = %v, want 0.5", r)
	}
}

// On 200 tables every shard's graph holds 50 vectors, which a beam of 64
// searches exhaustively: the served ranking must be the oracle's.
func TestOracleAgreesWithServedRankingOn200Tables(t *testing.T) {
	in := newInputs(11)
	tables := in.tables(0, smallTables)
	fx, err := newFixture(tables)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.svc.Close()
	o := newOracle(tables)
	for _, q := range in.queries("check", 60, smallTables) {
		ds, err := fx.svc.SearchIn(context.Background(), q, searchK, "tables")
		if err != nil {
			t.Fatal(err)
		}
		got := make([]string, len(ds))
		for i, d := range ds {
			got[i] = d.ID
		}
		want := o.top(q, searchK)
		if r := recall(got, want); r < 1 {
			t.Errorf("query %q: served %v, oracle %v (recall %.2f)", q, got, want, r)
		}
	}
}
