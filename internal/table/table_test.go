package table

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"pneuma/internal/value"
)

func sampleTable() *Table {
	t := New(Schema{
		Name:        "samples",
		Description: "chemical samples",
		Columns: []Column{
			{Name: "id", Type: value.KindInt},
			{Name: "site", Type: value.KindString},
			{Name: "k_ppm", Type: value.KindFloat, Description: "Potassium (ppm)", Unit: "ppm"},
		},
	})
	t.MustAppend(Row{value.Int(1), value.String("Malta"), value.Float(120.5)})
	t.MustAppend(Row{value.Int(2), value.String("Gozo"), value.Float(98.1)})
	t.MustAppend(Row{value.Int(3), value.String("Malta"), value.Null()})
	return t
}

func TestSchemaLookups(t *testing.T) {
	tb := sampleTable()
	if i := tb.Schema.ColumnIndex("K_PPM"); i != 2 {
		t.Errorf("case-insensitive index = %d, want 2", i)
	}
	if i := tb.Schema.ColumnIndex("nope"); i != -1 {
		t.Errorf("missing column index = %d, want -1", i)
	}
	c, ok := tb.Schema.Column("site")
	if !ok || c.Name != "site" {
		t.Errorf("Column(site) = %v, %v", c, ok)
	}
	want := "samples(id bigint, site varchar, k_ppm double)"
	if got := tb.Schema.String(); got != want {
		t.Errorf("Schema.String() = %q, want %q", got, want)
	}
}

func TestAppendArityChecked(t *testing.T) {
	tb := sampleTable()
	if err := tb.Append(Row{value.Int(4)}); err == nil {
		t.Fatal("short row must be rejected")
	}
}

func TestCloneIsDeep(t *testing.T) {
	tb := sampleTable()
	cp := tb.Clone()
	cp.Row(0)[1] = value.String("Changed")
	if tb.At(0, 1).StringVal() != "Malta" {
		t.Fatal("Clone must not share row storage")
	}
}

func TestProfile(t *testing.T) {
	tb := sampleTable()
	p := tb.BuildProfile()
	k := p.Columns[2]
	if k.Min.FloatVal() != 98.1 || k.Max.FloatVal() != 120.5 {
		t.Errorf("k_ppm min/max = %v/%v", k.Min, k.Max)
	}
	// k_ppm's third cell is NULL. NULL sorts before every value, so as a
	// bound it would be Min; it renders "", so as a sample it would be a
	// third one.
	if k.Min.IsNull() || k.Max.IsNull() || !reflect.DeepEqual(k.SampleValues, []string{"120.5", "98.1"}) {
		t.Errorf("k_ppm stats count the NULL cell: %+v", k)
	}
	if site := p.Columns[1]; !reflect.DeepEqual(site.SampleValues, []string{"Malta", "Gozo"}) {
		t.Errorf("site samples = %q", site.SampleValues)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tb := sampleTable()
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("samples", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 3 || back.NumCols() != 3 {
		t.Fatalf("round trip dims %dx%d", back.NumRows(), back.NumCols())
	}
	if back.Schema.Columns[2].Type != value.KindFloat {
		t.Errorf("k_ppm type = %v, want float", back.Schema.Columns[2].Type)
	}
	k := back.Schema.ColumnIndex("k_ppm")
	if got := back.At(1, k).FloatVal(); got != 98.1 {
		t.Errorf("k_ppm[1] = %v", got)
	}
	if !back.At(2, k).IsNull() {
		t.Error("null survived round trip as non-null")
	}
}

func TestCSVTypeInference(t *testing.T) {
	csv := "a,b,c,d\n1,1.5,x,2020-01-01\n2,2,y,2021-06-15\n,,,"
	tb, err := ReadCSV("t", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := []value.Kind{value.KindInt, value.KindFloat, value.KindString, value.KindTime}
	for i, w := range wantKinds {
		if got := tb.Schema.Columns[i].Type; got != w {
			t.Errorf("col %d type = %v, want %v", i, got, w)
		}
	}
}

func TestCSVMixedIntFloatUnifies(t *testing.T) {
	csv := "x\n1\n2.5\n3"
	tb, err := ReadCSV("t", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Schema.Columns[0].Type != value.KindFloat {
		t.Fatalf("mixed int/float should unify to float, got %v", tb.Schema.Columns[0].Type)
	}
	if got := tb.At(0, 0).FloatVal(); got != 1 {
		t.Errorf("coerced value = %v", got)
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV("t", strings.NewReader("")); err == nil {
		t.Error("empty CSV must error")
	}
	if _, err := ReadCSV("t", strings.NewReader("a,b\n1")); err == nil {
		t.Error("ragged CSV must error")
	}
}

func TestCSVFileAndLoadDir(t *testing.T) {
	dir := t.TempDir()
	tb := sampleTable()
	if err := tb.WriteCSVFile(filepath.Join(dir, "samples.csv")); err != nil {
		t.Fatal(err)
	}
	tb2 := sampleTable()
	tb2.Schema.Name = "other"
	if err := tb2.WriteCSVFile(filepath.Join(dir, "other.csv")); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("LoadDir found %d tables, want 2", len(got))
	}
	if _, ok := got["samples"]; !ok {
		t.Error("samples table missing")
	}
}

func TestRender(t *testing.T) {
	tb := sampleTable()
	out := tb.Render(2)
	if !strings.Contains(out, "k_ppm") {
		t.Error("render must include header")
	}
	if !strings.Contains(out, "1 more rows") {
		t.Errorf("render must note truncation:\n%s", out)
	}
}

func TestHead(t *testing.T) {
	tb := sampleTable()
	h := tb.Head(2)
	if h.NumRows() != 2 {
		t.Fatalf("head rows = %d", h.NumRows())
	}
	h = tb.Head(99)
	if h.NumRows() != 3 {
		t.Fatalf("over-long head rows = %d", h.NumRows())
	}
}

func TestCSVRoundTripProperty(t *testing.T) {
	// Any table of ints written to CSV and read back preserves the values.
	f := func(xs []int64) bool {
		tb := New(Schema{Name: "p", Columns: []Column{{Name: "v", Type: value.KindInt}}})
		for _, x := range xs {
			tb.MustAppend(Row{value.Int(x)})
		}
		var buf bytes.Buffer
		if err := tb.WriteCSV(&buf); err != nil {
			return false
		}
		back, err := ReadCSV("p", &buf)
		if err != nil {
			return false
		}
		if back.NumRows() != len(xs) {
			return false
		}
		for i, x := range xs {
			if back.At(i, 0).IntVal() != x {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
