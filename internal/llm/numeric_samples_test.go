package llm_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pneuma/internal/kramabench"
	"pneuma/internal/llm"
	"pneuma/internal/racebuild"
	"pneuma/internal/table"
)

// parseFloatNumeric is the verdict mostlyNumericSamples gave before it
// counted through value.AsFloat: strconv.ParseFloat of the trimmed sample.
func parseFloatNumeric(c llm.ColumnInfo) bool {
	if c.Type != "varchar" || len(c.Samples) == 0 {
		return false
	}
	numeric := 0
	for _, s := range c.Samples {
		if _, err := strconv.ParseFloat(strings.TrimSpace(s), 64); err == nil {
			numeric++
		}
	}
	return numeric*2 > len(c.Samples)
}

// asFloatInputs reads the value package's asFloatInputs, the near-misses
// on both sides of AsFloat's screen, out of its test source.
func asFloatInputs(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("..", "value", "value_test.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok || len(spec.Names) != 1 || spec.Names[0].Name != "asFloatInputs" {
			return true
		}
		for _, e := range spec.Values[0].(*ast.CompositeLit).Elts {
			s, err := strconv.Unquote(e.(*ast.BasicLit).Value)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, s)
		}
		return false
	})
	if len(out) == 0 {
		t.Fatal("value_test.go declares no asFloatInputs")
	}
	return out
}

// TestMostlyNumericSamplesMatchesParseFloat holds mostlyNumericSamples to
// the ParseFloat count it replaced: column by column and sample by sample
// over every profile sample of both kramabench corpora, and sample by
// sample over asFloatInputs.
func TestMostlyNumericSamplesMatchesParseFloat(t *testing.T) {
	check := func(c llm.ColumnInfo, where string) {
		t.Helper()
		if got, want := llm.MostlyNumericSamples(c), parseFloatNumeric(c); got != want {
			t.Errorf("%s: mostlyNumericSamples = %v, ParseFloat count says %v", where, got, want)
		}
	}
	samples := 0
	for corpus, tables := range map[string]map[string]*table.Table{
		"archaeology": kramabench.Archaeology(),
		"environment": kramabench.Environment(),
	} {
		for name, tb := range tables {
			ti := llm.NewTableInfo(tb, 1<<20)
			for _, c := range ti.Columns {
				where := corpus + "." + name + "." + c.Name
				check(c, where)
				for _, s := range c.Samples {
					check(llm.ColumnInfo{Type: "varchar", Samples: []string{s}}, where+" sample "+strconv.Quote(s))
					samples++
				}
			}
		}
	}
	if samples == 0 {
		t.Fatal("the corpora's profiles hold no samples")
	}
	for _, s := range asFloatInputs(t) {
		check(llm.ColumnInfo{Type: "varchar", Samples: []string{s}}, "asFloatInputs "+strconv.Quote(s))
	}
}

// TestMostlyNumericSamplesOnWordsDoesNotAllocate: a column of words is
// judged without an allocation (ParseFloat allocated an error per word).
func TestMostlyNumericSamplesOnWordsDoesNotAllocate(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	c := llm.ColumnInfo{Type: "varchar", Samples: []string{"suspect", "Necropolis", "1936-07-06", "Netherlands", "infinite", "East"}}
	if n := testing.AllocsPerRun(100, func() {
		if llm.MostlyNumericSamples(c) {
			t.Fatal("a column of words judged numeric")
		}
	}); n != 0 {
		t.Errorf("mostlyNumericSamples allocates %v times on a column of words", n)
	}
}
