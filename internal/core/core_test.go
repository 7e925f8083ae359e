package core

import (
	"context"
	"strings"
	"testing"

	"pneuma/internal/docs"
	"pneuma/internal/llm"
	"pneuma/internal/table"
	"pneuma/internal/value"
)

func TestStateLifecycle(t *testing.T) {
	s := NewState()
	if s.IsMaterialized() {
		t.Fatal("empty state cannot be materialized")
	}
	spec := llm.TableSpec{Name: "target", BaseTable: "base", Columns: []string{"a"}}
	s.SetModel([]llm.TableSpec{spec}, []string{"SELECT a FROM target"})
	if s.Revision != 1 {
		t.Fatalf("revision = %d", s.Revision)
	}
	if s.IsMaterialized() {
		t.Fatal("unpopulated spec cannot be materialized")
	}
	tb := table.New(table.Schema{Name: "target", Columns: []table.Column{{Name: "a", Type: value.KindInt}}})
	tb.MustAppend(table.Row{value.Int(7)})
	s.SetMaterialized("target", tb)
	if !s.IsMaterialized() {
		t.Fatal("state should be materialized")
	}
	s.SetResult(tb)
	ans, ok := s.Answer()
	if !ok || ans != "7" {
		t.Fatalf("answer = %q %v", ans, ok)
	}
	// SetModel invalidates materialization and results.
	s.SetModel([]llm.TableSpec{spec}, []string{"SELECT a FROM target WHERE a > 0"})
	if s.IsMaterialized() || s.LastResult != nil {
		t.Fatal("SetModel must invalidate materialization")
	}
	view := s.View()
	for _, want := range []string{"State (T, Q)", "target", "Q[0]"} {
		if !strings.Contains(view, want) {
			t.Errorf("view missing %q:\n%s", want, view)
		}
	}
}

func TestStateInfoCarriesSpecs(t *testing.T) {
	s := NewState()
	spec := llm.TableSpec{Name: "t", BaseTable: "b", Columns: []string{"x"},
		Transforms: []llm.TransformSpec{{Kind: "interpolate", Column: "x", Arg: "year"}}}
	s.SetModel([]llm.TableSpec{spec}, nil)
	info := s.Info(4)
	if len(info.Specs) != 1 || len(info.Specs[0].Transforms) != 1 {
		t.Fatalf("state info lost transforms: %+v", info.Specs)
	}
}

// dirtyCorpusDocs builds retrieval documents whose date column carries mixed
// formats plus "n.d." garbage — the repair-loop scenario.
func dirtyCorpusDocs() []docs.Document {
	tb := table.New(table.Schema{
		Name:        "artifacts",
		Description: "artifact catalog",
		Columns: []table.Column{
			{Name: "region", Type: value.KindString, Description: "Region"},
			{Name: "catalog_date", Type: value.KindString, Description: "Date catalogued"},
			{Name: "grade", Type: value.KindInt, Description: "Condition grade"},
		},
	})
	rows := []struct {
		region, date string
		grade        int64
	}{
		{"Malta", "March 5, 1972", 3},
		{"Malta", "1975-06-01", 5},
		{"Malta", "n.d.", 2},
		{"Gozo", "April 9, 1977", 4},
	}
	for _, r := range rows {
		tb.MustAppend(table.Row{value.String(r.region), value.String(r.date), value.Int(r.grade)})
	}
	return []docs.Document{docs.TableDocument(tb)}
}

func TestMaterializerRepairLoopOnDirtyDates(t *testing.T) {
	model := llm.NewSimModel()
	m := NewMaterializer(model, 3)
	spec := llm.TableSpec{
		Name:      "target_artifacts",
		BaseTable: "artifacts",
		Columns:   []string{"region", "catalog_date", "grade"},
		Transforms: []llm.TransformSpec{
			{Kind: "parse_dates", Column: "catalog_date"},
		},
	}
	res, err := m.Materialize(context.Background(), spec, dirtyCorpusDocs(), []string{
		"SELECT AVG(grade) AS answer FROM target_artifacts WHERE YEAR(catalog_date) BETWEEN 1970 AND 1980",
	})
	if err != nil {
		t.Fatalf("repair loop failed: %v (errors: %v)", err, res.Errors)
	}
	if res.Repairs == 0 {
		t.Fatal("expected at least one repair for the n.d. value")
	}
	if res.Table.NumRows() != 4 {
		t.Fatalf("rows = %d", res.Table.NumRows())
	}
	// The n.d. row must have a NULL date after the lenient re-run.
	di := res.Table.Schema.ColumnIndex("catalog_date")
	nulls := 0
	for ri := range res.Table.NumRows() {
		r := res.Table.Row(ri)
		if r[di].IsNull() {
			nulls++
		}
	}
	if nulls != 1 {
		t.Fatalf("null dates = %d, want 1", nulls)
	}
}

func TestMaterializerNoRepairBudgetFails(t *testing.T) {
	model := llm.NewSimModel()
	m := NewMaterializer(model, 0) // the static-pipeline / DS-Guru setting
	spec := llm.TableSpec{
		Name:      "target_artifacts",
		BaseTable: "artifacts",
		Columns:   []string{"region", "catalog_date", "grade"},
		Transforms: []llm.TransformSpec{
			{Kind: "parse_dates", Column: "catalog_date"},
		},
	}
	_, err := m.Materialize(context.Background(), spec, dirtyCorpusDocs(), []string{
		"SELECT AVG(grade) AS answer FROM target_artifacts WHERE YEAR(catalog_date) BETWEEN 1970 AND 1980",
	})
	if err == nil {
		t.Fatal("zero repair budget must fail on dirty dates")
	}
}

func TestMaterializerMissingBaseTable(t *testing.T) {
	m := NewMaterializer(llm.NewSimModel(), 1)
	spec := llm.TableSpec{Name: "t", BaseTable: "ghost", Columns: []string{"x"}}
	_, err := m.Materialize(context.Background(), spec, dirtyCorpusDocs(), nil)
	if err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("err = %v", err)
	}
}

func smallCorpus() map[string]*table.Table {
	soil := table.New(table.Schema{
		Name:        "soil_samples",
		Description: "Soil chemistry samples from excavation sites",
		Columns: []table.Column{
			{Name: "region", Type: value.KindString, Description: "Region of the site"},
			{Name: "study_year", Type: value.KindInt, Description: "Year of the study"},
			{Name: "organic_pct", Type: value.KindFloat, Description: "Organic matter percentage"},
		},
	})
	data := []struct {
		region string
		year   int64
		v      float64
	}{
		{"Malta", 1950, 4.0}, {"Malta", 1960, 6.0}, {"Gozo", 1950, 2.0}, {"Gozo", 1970, 8.0},
	}
	for _, d := range data {
		soil.MustAppend(table.Row{value.String(d.region), value.Int(d.year), value.Float(d.v)})
	}
	return map[string]*table.Table{"soil_samples": soil}
}

func TestSeekerEndToEndTurn(t *testing.T) {
	seeker, err := New(context.Background(), Config{}, smallCorpus(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess := seeker.NewSession("tester")
	reply, err := sess.Send(context.Background(), "What is the average organic matter percentage for soil samples in the Malta region? Round your answer to 2 decimal places.")
	if err != nil {
		t.Fatal(err)
	}
	if reply.Answer != "5" {
		t.Fatalf("answer = %q, want 5 (avg of 4 and 6)", reply.Answer)
	}
	if len(reply.State.Queries) != 1 || !strings.Contains(reply.State.Queries[0], "AVG(organic_pct)") {
		t.Fatalf("state queries = %v", reply.State.Queries)
	}
	// The action trace must show the full dynamic sequence.
	var kinds []string
	for _, a := range reply.Actions {
		kinds = append(kinds, a.Action)
	}
	joined := strings.Join(kinds, ",")
	for _, want := range []string{"retrieve", "update_state", "materialize", "execute"} {
		if !strings.Contains(joined, want) {
			t.Errorf("action trace missing %s: %v", want, kinds)
		}
	}
	// The meter must have billed tokens.
	if seeker.Meter().Snapshot().Total.InTokens == 0 {
		t.Error("no tokens metered")
	}
	if sess.TurnLatency == 0 {
		t.Error("no simulated latency recorded")
	}
}

func TestSeekerRefinementInvalidatesAndRecomputes(t *testing.T) {
	seeker, err := New(context.Background(), Config{}, smallCorpus(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess := seeker.NewSession("tester")
	if _, err := sess.Send(context.Background(), "What is the average organic matter percentage for soil samples in the Malta region?"); err != nil {
		t.Fatal(err)
	}
	reply, err := sess.Send(context.Background(), "Actually, what is the average organic matter percentage in the Gozo region since 1960?")
	if err != nil {
		t.Fatal(err)
	}
	if reply.Answer != "8" {
		t.Fatalf("refined answer = %q, want 8 (only the 1970 Gozo sample)", reply.Answer)
	}
}

func TestSeekerActionCapForcesMessage(t *testing.T) {
	seeker, err := New(context.Background(), Config{MaxActions: 1}, smallCorpus(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess := seeker.NewSession("tester")
	reply, err := sess.Send(context.Background(), "What is the average organic matter percentage in the Malta region?")
	if err != nil {
		t.Fatal(err)
	}
	if !reply.Forced {
		t.Fatal("action cap of 1 must force an interrupt message")
	}
	if reply.Message == "" {
		t.Fatal("forced reply must still carry a user-facing message")
	}
}

func TestKnowledgeCapture(t *testing.T) {
	seeker, err := New(context.Background(), Config{}, smallCorpus(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess := seeker.NewSession("alice")
	if _, err := sess.Send(context.Background(), "Note that organic matter should be calculated on dry weight; assume values are comparable across years."); err != nil {
		t.Fatal(err)
	}
	if seeker.Knowledge().Len() != 1 {
		t.Fatalf("knowledge notes = %d, want 1", seeker.Knowledge().Len())
	}
	// A second user's session surfaces it.
	bob := seeker.NewSession("bob")
	if _, err := bob.Send(context.Background(), "Tell me about organic matter values across years."); err != nil {
		t.Fatal(err)
	}
	if len(bob.KnowledgeNotes) == 0 {
		t.Fatal("cross-user knowledge transfer failed")
	}
}

func TestStaticPipelineMode(t *testing.T) {
	off := false
	seeker, err := New(context.Background(), Config{DynamicPlanning: &off}, smallCorpus(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess := seeker.NewSession("tester")
	reply, err := sess.Send(context.Background(), "What is the average organic matter percentage for soil samples in the Malta region?")
	if err != nil {
		t.Fatal(err)
	}
	// The fixed pipeline can still answer simple questions...
	if reply.Answer == "" {
		t.Fatalf("static pipeline failed on an easy question: %q", reply.Message)
	}
}
