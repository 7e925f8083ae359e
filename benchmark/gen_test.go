package main

import (
	"fmt"
	"strings"
	"testing"

	"pneuma/internal/docs"
	"pneuma/internal/table"
)

// fingerprint renders everything the program sees of a table list.
func fingerprint(ts []*table.Table) string {
	var b strings.Builder
	for _, t := range ts {
		b.WriteString(docs.TableDocument(t).Content)
		if err := t.WriteCSV(&b); err != nil {
			panic(err)
		}
	}
	return b.String()
}

func TestGeneratorsArePureFunctionsOfTheSeed(t *testing.T) {
	a, b := newInputs(7), newInputs(7)
	// b generates other things first: every generator has its own stream.
	b.queries("other", 10, 200)
	b.tables(500, 3)
	if fingerprint(a.tables(0, 200)) != fingerprint(b.tables(0, 200)) {
		t.Error("equal seeds generated different corpora")
	}
	if fmt.Sprint(a.queries("measured", 300, 200)) != fmt.Sprint(b.queries("measured", 300, 200)) {
		t.Error("equal seeds generated different query lists")
	}
	if fingerprint(a.tables(0, 50)) == fingerprint(newInputs(8).tables(0, 50)) {
		t.Error("different seeds generated the same corpus")
	}
	if fmt.Sprint(a.queries("measured", 20, 200)) == fmt.Sprint(a.queries("hot", 20, 200)) {
		t.Error("query lists of different purposes are the same draw")
	}
}

func TestCorpusShape(t *testing.T) {
	in := newInputs(3)
	if len(in.vocab.domains) < 48 || len(in.vocab.domains[0].nouns) != 12 {
		t.Fatalf("vocabulary is %d domains x %d nouns, want at least 48 x 12", len(in.vocab.domains), len(in.vocab.domains[0].nouns))
	}
	names := map[string]bool{}
	for i, tb := range in.tables(0, 200) {
		if cols := tb.NumCols(); cols < 4 || cols > 6 {
			t.Errorf("table %s has %d columns, want 4..6", tb.Schema.Name, cols)
		}
		if tb.NumRows() != 8 || tb.Schema.Description == "" {
			t.Errorf("table %s: %d rows, description %q", tb.Schema.Name, tb.NumRows(), tb.Schema.Description)
		}
		for _, c := range tb.Schema.Columns {
			if c.Description == "" {
				t.Errorf("table %s column %s is not described", tb.Schema.Name, c.Name)
			}
		}
		if !strings.HasSuffix(tb.Schema.Name, serial(i)) || names[tb.Schema.Name] {
			t.Errorf("table %d is named %s", i, tb.Schema.Name)
		}
		names[tb.Schema.Name] = true
	}
}

func TestQueriesAreDistinctCacheKeys(t *testing.T) {
	in := newInputs(5)
	seen := map[string]bool{}
	for _, q := range in.queries("measured", 5000, 200) {
		words := strings.Fields(q)
		if n := len(words) - 1; n < minQueryWords || n > maxQueryWords {
			t.Fatalf("query %q has %d vocabulary words", q, n)
		}
		uniq := map[string]bool{}
		for _, w := range words {
			uniq[w] = true
		}
		if len(uniq) != len(words) {
			t.Fatalf("query %q repeats a word", q)
		}
		if seen[q] {
			t.Fatalf("query %q generated twice", q)
		}
		seen[q] = true
		// A rotation is the same bag of words under another cache key.
		if r := permuted(q, 1); r == q || len(strings.Fields(r)) != len(words) {
			t.Fatalf("permuted(%q) = %q", q, r)
		}
	}
	for _, q := range in.queriesOver("pool", 50, 60000, 100) {
		if s := strings.Fields(q); s[len(s)-1] < serial(60000) || s[len(s)-1] >= serial(60100) {
			t.Fatalf("query %q targets a table outside 60000..60099", q)
		}
	}
}
