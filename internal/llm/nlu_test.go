package llm

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"pneuma/internal/textutil"
)

func testVocab() Vocab {
	return Vocab{Tables: []TableInfo{
		{
			Name:        "soil_samples",
			Description: "Soil chemistry samples",
			Columns: []ColumnInfo{
				{Name: "region", Type: "varchar", Description: "Region of the site",
					Samples: []string{"Malta", "Gozo", "Sicily"}},
				{Name: "study_year", Type: "bigint", Description: "Year of the study campaign"},
				{Name: "k_ppm", Type: "double", Description: "Potassium concentration in parts per million", Unit: "ppm"},
				{Name: "ph", Type: "double", Description: "Soil acidity (pH)"},
			},
		},
		{
			Name:        "stations",
			Description: "Monitoring stations registry",
			Columns: []ColumnInfo{
				{Name: "station_id", Type: "bigint", Description: "Station identifier"},
				{Name: "station_name", Type: "varchar", Description: "Station name",
					Samples: []string{"Alder Point", "Birch Ridge"}},
			},
		},
	}}
}

func TestParseUtteranceAggregates(t *testing.T) {
	cases := []struct {
		text string
		agg  string
	}{
		{"What is the average potassium level?", "AVG"},
		{"Show me the total rainfall", "SUM"},
		{"How many samples are there?", "COUNT"},
		{"What is the maximum depth?", "MAX"},
		{"the lowest reading please", "MIN"},
		{"median turbidity?", "MEDIAN"},
		{"standard deviation of the ratio", "STDDEV"},
	}
	for _, c := range cases {
		got := ParseUtterance(c.text, testVocab())
		if got.Aggregate != c.agg {
			t.Errorf("ParseUtterance(%q).Aggregate = %q, want %q", c.text, got.Aggregate, c.agg)
		}
	}
}

func TestAssumeDoesNotMatchSum(t *testing.T) {
	in := ParseUtterance("Assume the measurements are linearly interpolated between samples.", testVocab())
	if in.Aggregate == "SUM" {
		t.Fatal("'assume' must not lex as SUM")
	}
	if !in.Interpolate {
		t.Fatal("interpolation marker missed")
	}
}

func TestParseYearRanges(t *testing.T) {
	cases := []struct {
		text     string
		from, to int
	}{
		{"between 1940 and 1960", 1940, 1960},
		{"from 1900 to 1950", 1900, 1950},
		{"since 1980", 1980, 0},
		{"before 1900", 0, 1900},
		{"in 1975", 1975, 1975},
		{"between 5 and 9 samples", 0, 0}, // not years
	}
	for _, c := range cases {
		got := ParseUtterance(c.text, testVocab())
		if got.YearFrom != c.from || got.YearTo != c.to {
			t.Errorf("ParseUtterance(%q) years = (%d,%d), want (%d,%d)",
				c.text, got.YearFrom, got.YearTo, c.from, c.to)
		}
	}
}

func TestParseRoundingDirective(t *testing.T) {
	in := ParseUtterance("Round your answer to 4 decimal places.", testVocab())
	if in.RoundTo != 4 {
		t.Fatalf("RoundTo = %d, want 4", in.RoundTo)
	}
	in = ParseUtterance("no rounding here", testVocab())
	if in.RoundTo != -1 {
		t.Fatalf("RoundTo = %d, want -1", in.RoundTo)
	}
}

func TestFilterGrounding(t *testing.T) {
	in := ParseUtterance("What is the average ph for soil samples in the Malta region?", testVocab())
	if len(in.Filters) != 1 || in.Filters[0].Value != "Malta" {
		t.Fatalf("filters = %+v, want Malta", in.Filters)
	}
	if in.Filters[0].Column != "region" {
		t.Errorf("filter column = %q, want region", in.Filters[0].Column)
	}
}

func TestFilterBigramAndSubsumption(t *testing.T) {
	in := ParseUtterance("Average ph at the Alder Point station please.", testVocab())
	if len(in.Filters) != 1 {
		t.Fatalf("filters = %+v, want exactly one (Alder Point)", in.Filters)
	}
	if in.Filters[0].Value != "Alder Point" {
		t.Errorf("value = %q, want Alder Point", in.Filters[0].Value)
	}
}

func TestSentenceInitialCapitalsIgnored(t *testing.T) {
	in := ParseUtterance("What about the data? Could you check again? Round it off.", testVocab())
	if len(in.Filters) != 0 {
		t.Fatalf("grammar words became filters: %+v", in.Filters)
	}
}

func TestMeasureResolution(t *testing.T) {
	tbl, col, score, amb := ResolveMeasure(testVocab(), "Potassium in ppm", "")
	if score < 0.3 || amb {
		t.Fatalf("potassium resolution failed: score=%v amb=%v", score, amb)
	}
	if tbl.Name != "soil_samples" || col.Name != "k_ppm" {
		t.Fatalf("resolved %s.%s, want soil_samples.k_ppm", tbl.Name, col.Name)
	}
	_, _, score, _ = ResolveMeasure(testVocab(), "stock prices", "")
	if score >= 0.3 {
		t.Fatalf("unrelated phrase resolved with score %v", score)
	}
}

func TestResolveFilterColumnFuzzyCanonicalizes(t *testing.T) {
	col, canon, ok := ResolveFilterColumn(testVocab().Tables[0], FilterSpec{Value: "Maltese", ColumnPhrase: "area"})
	if !ok || col != "region" || canon != "Malta" {
		t.Fatalf("fuzzy canonicalization failed: col=%q canon=%q ok=%v", col, canon, ok)
	}
}

func TestMergeIntentAccumulates(t *testing.T) {
	v := testVocab()
	acc := ParseAll([]string{
		"I'm curious to dive into the soil data from the Malta region. Could you give me an overview?",
		"Great. I'm particularly interested in the Potassium concentration measurements.",
		"Restrict it to the years between 1920 and 1980.",
		"What is the average Potassium concentration in the Malta region between 1920 and 1980? Round your answer to 4 decimal places.",
	}, v)
	if acc.MeasurePhrase == "" {
		t.Fatal("measure lost in merge")
	}
	if acc.Aggregate != "AVG" {
		t.Errorf("aggregate = %q", acc.Aggregate)
	}
	if acc.YearFrom != 1920 || acc.YearTo != 1980 {
		t.Errorf("years = %d-%d", acc.YearFrom, acc.YearTo)
	}
	if acc.RoundTo != 4 {
		t.Errorf("round = %d", acc.RoundTo)
	}
	if len(acc.Filters) != 1 || acc.Filters[0].Value != "Malta" {
		t.Errorf("filters = %+v", acc.Filters)
	}
	if acc.WantOverview {
		t.Error("overview flag must clear once the need is specific")
	}
}

func TestFilterRestatementDoesNotShadowMeasure(t *testing.T) {
	v := testVocab()
	acc := ParseAll([]string{
		"I'm particularly interested in the Potassium concentration measurements.",
		"Please focus on the Malta region only.",
	}, v)
	if acc.MeasurePhrase != "potassium concentration" {
		t.Fatalf("measure = %q, shadowed by filter restatement", acc.MeasurePhrase)
	}
}

func TestBuildPlanSingleTable(t *testing.T) {
	v := testVocab()
	intent := ParseUtterance(
		"What is the average Potassium in ppm for soil samples in the Malta region between 1920 and 1980? Round your answer to 4 decimal places.", v)
	tbl, col, _, _ := ResolveMeasure(v, intent.MeasurePhrase, intent.Topic)
	spec, queries, unresolved := BuildPlan(intent, v, tbl, col)
	if unresolved != "" {
		t.Fatalf("unresolved: %s", unresolved)
	}
	if spec.BaseTable != "soil_samples" {
		t.Errorf("base = %q", spec.BaseTable)
	}
	if len(queries) != 1 {
		t.Fatalf("queries = %v", queries)
	}
	q := queries[0]
	for _, want := range []string{"ROUND(AVG(k_ppm), 4)", "region = 'Malta'", "study_year BETWEEN 1920 AND 1980"} {
		if !contains(q, want) {
			t.Errorf("query missing %q:\n%s", want, q)
		}
	}
}

func TestBuildPlanCrossTableJoin(t *testing.T) {
	v := Vocab{Tables: []TableInfo{
		{
			Name: "air_pm25", Description: "Air readings",
			Columns: []ColumnInfo{
				{Name: "station_id", Type: "bigint", Description: "Station"},
				{Name: "year", Type: "bigint", Description: "Year"},
				{Name: "pm25_ugm3", Type: "double", Description: "Fine particulate matter concentration"},
			},
		},
		{
			Name: "stations", Description: "Stations registry",
			Columns: []ColumnInfo{
				{Name: "station_id", Type: "bigint", Description: "Station identifier"},
				{Name: "station_name", Type: "varchar", Description: "Station name",
					Samples: []string{"Alder Point"}},
			},
		},
	}}
	intent := ParseUtterance("What is the average fine particulate matter concentration at the Alder Point station?", v)
	tbl, col, _, _ := ResolveMeasure(v, intent.MeasurePhrase, intent.Topic)
	spec, queries, unresolved := BuildPlan(intent, v, tbl, col)
	if unresolved != "" {
		t.Fatalf("unresolved: %s", unresolved)
	}
	if spec.JoinTable != "stations" || spec.JoinLeftKey != "station_id" {
		t.Fatalf("join spec wrong: %+v", spec)
	}
	if !contains(queries[0], "station_name = 'Alder Point'") {
		t.Errorf("query missing station filter: %s", queries[0])
	}
}

func TestSharedKeyRejectsGenericColumns(t *testing.T) {
	a := TableInfo{Name: "a", Columns: []ColumnInfo{{Name: "year"}, {Name: "region"}}}
	b := TableInfo{Name: "b", Columns: []ColumnInfo{{Name: "year"}, {Name: "region"}}}
	if _, _, ok := sharedKey(a, b); ok {
		t.Fatal("year/region must not be join keys")
	}
	a.Columns = append(a.Columns, ColumnInfo{Name: "station_id"})
	b.Columns = append(b.Columns, ColumnInfo{Name: "station_id"})
	if l, r, ok := sharedKey(a, b); !ok || l != "station_id" || r != "station_id" {
		t.Fatalf("id key not found: %v %v %v", l, r, ok)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOfWordFree(s, sub))
}

func indexOfWordFree(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestColumnMatchUnderscoresSeparate: the matchers feed a column name to
// the tokenizer as is, and score exactly as if every "_" were a space.
func TestColumnMatchUnderscoresSeparate(t *testing.T) {
	cols := []ColumnInfo{
		{Name: "_lead__double_ _trail_", Description: "edge_cases in names", Unit: "m_s"},
		{Name: "sample_mass_mg", Description: "Mass of the sample", Unit: "mg"},
		{Name: "NO3_mg_L", Description: "Nitrate_concentration"},
	}
	for _, tb := range testVocab().Tables {
		cols = append(cols, tb.Columns...)
	}
	phrases := []string{"potassium in ppm", "k ppm", "sample mass", "nitrate concentration", "double trail", "station name"}
	for _, c := range cols {
		spaced := strings.ReplaceAll(c.Name, "_", " ")
		if got, want := textutil.Tokenize(c.Name), textutil.Tokenize(spaced); !reflect.DeepEqual(got, want) {
			t.Fatalf("Tokenize(%q) = %q, want %q", c.Name, got, want)
		}
		for _, p := range phrases {
			text := spaced + " " + c.Description + " " + c.Unit
			want := 0.65*textutil.TokenOverlap(p, text) + 0.35*float64(nluEmbedder.Similarity(p, text))
			if got := columnMatch(p, c); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("columnMatch(%q, %q) = %v, want %v", p, c.Name, got, want)
			}
			text = spaced + " " + c.Description
			want = float64(nluEmbedder.Similarity(p, text))
			if o := textutil.TokenOverlap(p, text); o > want {
				want = o
			}
			if got := columnPhraseMatch(p, c); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("columnPhraseMatch(%q, %q) = %v, want %v", p, c.Name, got, want)
			}
		}
	}
}
