package retriever

import (
	"context"
	"testing"

	"pneuma/internal/docs"
	"pneuma/internal/table"
	"pneuma/internal/value"
)

func fixtureTables() []*table.Table {
	mk := func(name, desc string, cols ...table.Column) *table.Table {
		return table.New(table.Schema{Name: name, Description: desc, Columns: cols})
	}
	soil := mk("soil_samples", "Soil chemistry samples from excavation sites",
		table.Column{Name: "k_ppm", Type: value.KindFloat, Description: "Potassium concentration in parts per million"},
		table.Column{Name: "region", Type: value.KindString, Description: "Region of the site"},
	)
	soil.MustAppend(table.Row{value.Float(100), value.String("Malta")})
	tariffs := mk("tariff_schedule", "Import tariff rates by country",
		table.Column{Name: "country", Type: value.KindString, Description: "Exporting country"},
		table.Column{Name: "rate", Type: value.KindFloat, Description: "Tariff rate"},
	)
	tariffs.MustAppend(table.Row{value.String("Germany"), value.Float(0.1)})
	hr := mk("employees", "Employee roster with salaries",
		table.Column{Name: "name", Type: value.KindString, Description: "Employee name"},
		table.Column{Name: "salary", Type: value.KindFloat, Description: "Annual salary"},
	)
	hr.MustAppend(table.Row{value.String("Ada"), value.Float(100000)})
	return []*table.Table{soil, tariffs, hr}
}

func buildIndex(t *testing.T, mode Mode) *Retriever {
	t.Helper()
	r := New(WithMode(mode))
	for _, tb := range fixtureTables() {
		if err := r.IndexTables(context.Background(), []*table.Table{tb}); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestHybridRanksBySemantics(t *testing.T) {
	r := buildIndex(t, ModeHybrid)
	hits, err := r.Search(context.Background(), "potassium levels in soil", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || hits[0].Title != "soil_samples" {
		t.Fatalf("top hit = %v, want soil_samples", hits)
	}
}

func TestDescriptionGrounding(t *testing.T) {
	// "potassium" appears only in a column description, not in any column
	// name or value — the capability FTS lacks.
	r := buildIndex(t, ModeHybrid)
	hits, _ := r.Search(context.Background(), "potassium", 1)
	if len(hits) != 1 || hits[0].Title != "soil_samples" {
		t.Fatalf("description grounding failed: %v", hits)
	}
}

func TestValueLiteralGrounding(t *testing.T) {
	r := buildIndex(t, ModeHybrid)
	hits, _ := r.Search(context.Background(), "Germany import rates", 1)
	if len(hits) != 1 || hits[0].Title != "tariff_schedule" {
		t.Fatalf("value grounding failed: %v", hits)
	}
}

func TestModes(t *testing.T) {
	for _, mode := range []Mode{ModeHybrid, ModeVectorOnly, ModeBM25Only} {
		r := buildIndex(t, mode)
		hits, err := r.Search(context.Background(), "employee salaries", 2)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if len(hits) == 0 || hits[0].Title != "employees" {
			t.Fatalf("mode %v: top = %v", mode, hits)
		}
	}
}

func TestDeleteAndLen(t *testing.T) {
	r := buildIndex(t, ModeHybrid)
	if r.Len() != 3 {
		t.Fatalf("len = %d", r.Len())
	}
	if !deleteOne(r, "table:employees") {
		t.Fatal("delete failed")
	}
	if deleteOne(r, "table:employees") {
		t.Fatal("double delete should be false")
	}
	hits, _ := r.Search(context.Background(), "employee salaries", 3)
	for _, h := range hits {
		if h.Title == "employees" {
			t.Fatal("deleted table surfaced")
		}
	}
}

func TestIndexDocumentNonTable(t *testing.T) {
	r := New()
	err := indexOne(r, context.Background(), docs.Document{
		ID: "note:1", Kind: docs.KindKnowledge, Title: "tariff rule",
		Content: "tariff impact must consider the previous active tariff rate",
	})
	if err != nil {
		t.Fatal(err)
	}
	hits, _ := r.Search(context.Background(), "previous tariff", 1)
	if len(hits) != 1 || hits[0].ID != "note:1" {
		t.Fatalf("knowledge doc not retrievable: %v", hits)
	}
	if _, ok := r.Document("note:1"); !ok {
		t.Fatal("Document lookup failed")
	}
}

func TestSearchZeroK(t *testing.T) {
	r := buildIndex(t, ModeHybrid)
	hits, err := r.Search(context.Background(), "anything", 0)
	if err != nil || hits != nil {
		t.Fatalf("k=0 should return nothing: %v %v", hits, err)
	}
}
