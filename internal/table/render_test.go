package table_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pneuma/internal/kramabench"
	"pneuma/internal/table"
	"pneuma/internal/value"
)

// referenceRender is Table.Render as it was before AppendRender — fmt's
// %-*s over a [][]string grid — kept verbatim as the definition the append
// form must reproduce byte for byte.
func referenceRender(t *table.Table, maxRows int) string {
	cols := t.Schema.ColumnNames()
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = len(c)
	}
	n := t.NumRows()
	if maxRows >= 0 && n > maxRows {
		n = maxRows
	}
	cells := make([][]string, n)
	for r := 0; r < n; r++ {
		cells[r] = make([]string, len(cols))
		for c := range cols {
			s := t.At(r, c).String()
			if len(s) > 24 {
				s = s[:21] + "..."
			}
			cells[r][c] = s
			if len(s) > widths[c] {
				widths[c] = len(s)
			}
		}
	}
	var b strings.Builder
	writeRow := func(vals []string) {
		b.WriteByte('|')
		for i, v := range vals {
			fmt.Fprintf(&b, " %-*s |", widths[i], v)
		}
		b.WriteByte('\n')
	}
	writeRow(cols)
	b.WriteByte('|')
	for _, w := range widths {
		b.WriteString(strings.Repeat("-", w+2))
		b.WriteByte('|')
	}
	b.WriteByte('\n')
	for _, row := range cells {
		writeRow(row)
	}
	if t.NumRows() > n {
		fmt.Fprintf(&b, "... (%d more rows)\n", t.NumRows()-n)
	}
	return b.String()
}

// referenceSchemaString is Schema.String as it was before AppendTo.
func referenceSchemaString(s table.Schema) string {
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('(')
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Type.String())
	}
	b.WriteByte(')')
	return b.String()
}

// textPieces build the text cells and names: multi-byte runes of two, three
// and four bytes, so a cut at byte 21 of a long cell lands inside a rune as
// often as not, and a column's width in bytes differs from its rune count.
var textPieces = []string{"a", "Z", " ", "°C", "é", "漢字", "ü", "𝄞", "-", "Malta", " "}

func text(r *rand.Rand, maxPieces int) string {
	var b strings.Builder
	for n := r.Intn(maxPieces + 1); n > 0; n-- {
		b.WriteString(textPieces[r.Intn(len(textPieces))])
	}
	return b.String()
}

// checkRender compares Render, AppendRender and Schema's two forms with the
// references.
func checkRender(t *testing.T, tb *table.Table, maxRows int) {
	t.Helper()
	want := referenceRender(tb, maxRows)
	if got := tb.Render(maxRows); got != want {
		t.Fatalf("%s: Render(%d) =\n%s\nwant\n%s", tb.Schema.Name, maxRows, got, want)
	}
	if got := string(tb.AppendRender([]byte("> "), maxRows)); got != "> "+want {
		t.Fatalf("%s: AppendRender(%d) =\n%s\nwant\n> %s", tb.Schema.Name, maxRows, got, want)
	}
	wantSchema := referenceSchemaString(tb.Schema)
	if got := tb.Schema.String(); got != wantSchema {
		t.Fatalf("Schema.String() = %q, want %q", got, wantSchema)
	}
	if got := string(tb.Schema.AppendTo([]byte("> "))); got != "> "+wantSchema {
		t.Fatalf("Schema.AppendTo = %q, want %q", got, "> "+wantSchema)
	}
}

func TestRenderMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	gens := []func(*rand.Rand) value.Value{
		func(r *rand.Rand) value.Value { return value.String(text(r, 4)) },
		func(r *rand.Rand) value.Value { return value.String(text(r, 16)) }, // often past 24 bytes
	}
	for _, g := range columnGenerators { // every kind, times with and without a clock part
		gens = append(gens, g)
	}
	for n := 0; n < 1500; n++ {
		cols := make([]table.Column, 1+r.Intn(5))
		for c := range cols {
			cols[c] = table.Column{Name: text(r, 3+c*4), Type: value.Kind(r.Intn(7))}
		}
		tb := table.New(table.Schema{Name: text(r, 3), Columns: cols})
		rows := []int{0, 1, 2, 5, 30}[r.Intn(5)]
		for i := 0; i < rows; i++ {
			row := make(table.Row, len(cols))
			for c := range row {
				row[c] = gens[(c*7+i*r.Intn(2))%len(gens)](r)
			}
			tb.MustAppend(row)
		}
		for _, maxRows := range []int{-1, 0, 1, rows, rows + 3, r.Intn(rows + 1)} {
			checkRender(t, tb, maxRows)
		}
	}

	// The traps spelled out: a cut at byte 21 inside a two-, three- and
	// four-byte rune, a cell of exactly 24 bytes, and a header wider in bytes
	// than in runes.
	tb := table.New(table.Schema{Name: "traps", Columns: []table.Column{{Name: "température_°C"}, {Name: "名前"}}})
	for _, s := range []string{
		strings.Repeat("a", 20) + "éé", strings.Repeat("a", 20) + "漢字", strings.Repeat("a", 19) + "𝄞𝄞",
		strings.Repeat("x", 24), strings.Repeat("é", 12), strings.Repeat("漢", 9),
	} {
		tb.MustAppend(table.Row{value.String(s), value.String(s[:len(s)/2])})
	}
	for _, maxRows := range []int{-1, 0, 1, 3, 6, 40} {
		checkRender(t, tb, maxRows)
	}
}

func TestRenderMatchesReferenceOnKramabench(t *testing.T) {
	for _, corpus := range []map[string]*table.Table{kramabench.Archaeology(), kramabench.Environment()} {
		for _, tb := range corpus {
			for _, maxRows := range []int{-1, 0, 2, 8, 10, 40} {
				checkRender(t, tb, maxRows)
			}
		}
	}
}
