package ir

import (
	"context"
	"testing"

	"pneuma/internal/docdb"
	"pneuma/internal/docs"
	"pneuma/internal/retriever"
	"pneuma/internal/table"
	"pneuma/internal/value"
	"pneuma/internal/websearch"
)

func fixtureSystem(t *testing.T) *System {
	t.Helper()
	ret := retriever.New()
	soil := table.New(table.Schema{
		Name:        "soil_samples",
		Description: "Soil chemistry samples",
		Columns: []table.Column{
			{Name: "k_ppm", Type: value.KindFloat, Description: "Potassium concentration"},
		},
	})
	soil.MustAppend(table.Row{value.Float(42)})
	if err := ret.IndexTables(context.Background(), []*table.Table{soil}); err != nil {
		t.Fatal(err)
	}
	kb := docdb.New()
	if _, err := kb.Save(context.Background(), "potassium analysis", "potassium should be interpolated between samples", "alice"); err != nil {
		t.Fatal(err)
	}
	web := websearch.New(websearch.BuiltinCorpus())
	return New(ret, kb, web)
}

func TestQueryMergesSources(t *testing.T) {
	s := fixtureSystem(t)
	res, err := s.Query(context.Background(), Request{Query: "potassium samples", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[docs.Kind]bool{}
	for _, d := range res.Documents {
		kinds[d.Kind] = true
	}
	if !kinds[docs.KindTable] || !kinds[docs.KindKnowledge] {
		t.Fatalf("expected table + knowledge documents, got %v", kinds)
	}
}

func TestSourceRestriction(t *testing.T) {
	s := fixtureSystem(t)
	res, err := s.Query(context.Background(), Request{Query: "potassium", Sources: []Source{SourceKnowledge}})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Documents {
		if d.Kind != docs.KindKnowledge {
			t.Fatalf("source restriction leaked: %v", d.Kind)
		}
	}
}

func TestUnknownSourceErrors(t *testing.T) {
	s := fixtureSystem(t)
	if _, err := s.Query(context.Background(), Request{Query: "x", Sources: []Source{"bogus"}}); err == nil {
		t.Fatal("unknown source must error")
	}
}

func TestNilComponentsAreSafe(t *testing.T) {
	s := New(nil, nil, nil)
	res, err := s.Query(context.Background(), Request{Query: "anything"})
	if err != nil || len(res.Documents) != 0 {
		t.Fatalf("nil components: %v %v", res, err)
	}
}

func TestLookupTable(t *testing.T) {
	s := fixtureSystem(t)
	tb, ok := s.LookupTable("soil_samples")
	if !ok || tb.Schema.Name != "soil_samples" {
		t.Fatalf("lookup failed: %v %v", tb, ok)
	}
	if _, ok := s.LookupTable("ghost"); ok {
		t.Fatal("missing table must not resolve")
	}
}

// TestResultHelpers checks that one query fuses table and knowledge
// documents into one result.
func TestResultHelpers(t *testing.T) {
	s := fixtureSystem(t)
	res, _ := s.Query(context.Background(), Request{Query: "potassium samples"})
	var tables, knowledge int
	for _, d := range res.Documents {
		if d.Table != nil {
			tables++
		}
		if d.Kind == docs.KindKnowledge {
			knowledge++
		}
	}
	if tables == 0 {
		t.Error("no table documents")
	}
	if knowledge == 0 {
		t.Error("no knowledge documents")
	}
}
