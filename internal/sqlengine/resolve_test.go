package sqlengine

import (
	"reflect"
	"testing"

	"pneuma/internal/table"
	"pneuma/internal/value"
)

// pairTable builds a two-column table with the columns in the given order;
// column "a" always holds 1, 2, 3 and column "b" 10, 20, 30.
func pairTable(first, second string) *table.Table {
	t := table.New(table.Schema{Name: "pairs", Columns: []table.Column{
		{Name: first, Type: value.KindInt}, {Name: second, Type: value.KindInt},
	}})
	cell := map[string]int64{"a": 1, "b": 10}
	for i := int64(1); i <= 3; i++ {
		t.MustAppend(table.Row{value.Int(cell[first] * i), value.Int(cell[second] * i)})
	}
	return t
}

// TestParsedStatementRunsOnDifferentlyOrderedTables: column positions are
// remembered per execution frame, never on the AST node, so one parsed
// statement can serve engines whose tables declare the columns differently.
func TestParsedStatementRunsOnDifferentlyOrderedTables(t *testing.T) {
	ab, ba := NewEngine(), NewEngine()
	ab.Register(pairTable("a", "b"))
	ba.Register(pairTable("b", "a"))
	sel, err := Parse("SELECT a, b, a + b AS s FROM pairs WHERE b > 10 ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	for round, e := range []*Engine{ab, ba, ab, ba} {
		out, err := e.Exec(sel)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		var got []int64
		for _, row := range out.Rows {
			for _, v := range row {
				got = append(got, v.IntVal())
			}
		}
		if want := []int64{2, 20, 22, 3, 30, 33}; !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: cells = %v, want %v", round, got, want)
		}
	}
}

// TestSelfJoinResolvesEachSideSeparately: in a self-join the same column
// name under two aliases, and the same ON-clause node against the left, right
// and combined frames, must land on different positions.
func TestSelfJoinResolvesEachSideSeparately(t *testing.T) {
	e := NewEngine()
	tree := table.New(table.Schema{Name: "tree", Columns: []table.Column{
		{Name: "k", Type: value.KindInt}, {Name: "parent", Type: value.KindInt}, {Name: "x", Type: value.KindString},
	}})
	tree.MustAppend(table.Row{value.Int(1), value.Null(), value.String("root")})
	tree.MustAppend(table.Row{value.Int(2), value.Int(1), value.String("left")})
	tree.MustAppend(table.Row{value.Int(3), value.Int(1), value.String("right")})
	tree.MustAppend(table.Row{value.Int(4), value.Int(3), value.String("leaf")})
	e.Register(tree)
	out := mustQuery(t, e, "SELECT a.x, b.x FROM tree a JOIN tree b ON a.k = b.parent AND a.x <> b.x ORDER BY b.k")
	want := [][2]string{{"root", "left"}, {"root", "right"}, {"right", "leaf"}}
	if out.NumRows() != len(want) {
		t.Fatalf("rows = %d, want %d:\n%s", out.NumRows(), len(want), out.Render(10))
	}
	for i, w := range want {
		if got := [2]string{out.Rows[i][0].String(), out.Rows[i][1].String()}; got != w {
			t.Errorf("row %d = %v, want %v", i, got, w)
		}
	}
}

// TestColumnErrorsKeepTheirText: the repair loop and the simulated model read
// these messages, so they are pinned byte for byte — whether the reference
// fails on the first row or only once a CASE arm reaches it on a later one.
func TestColumnErrorsKeepTheirText(t *testing.T) {
	e := testEngine(t)
	const join = " FROM procurement p JOIN tariffs t ON p.country = t.country"
	cases := []struct{ name, sql, want string }{
		{"missing/first-row", "SELECT nosuch FROM procurement", goldenMissing},
		{"missing/later-row", "SELECT CASE WHEN id > 2 THEN nosuch ELSE id END FROM procurement", goldenMissing},
		{"missing-qualified/first-row", "SELECT p.nosuch" + join, goldenMissingQualified},
		{"missing-qualified/later-row", "SELECT CASE WHEN p.id > 1 THEN p.nosuch ELSE 0 END" + join, goldenMissingQualified},
		{"ambiguous/first-row", "SELECT country" + join, goldenAmbiguous},
		{"ambiguous/later-row", "SELECT CASE WHEN p.id > 1 THEN country ELSE 'x' END" + join, goldenAmbiguous},
	}
	for _, tc := range cases {
		_, err := e.Query(tc.sql)
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if got := err.Error(); got != tc.want {
			t.Errorf("%s:\n got: %s\nwant: %s", tc.name, got, tc.want)
		}
	}
}

// Recorded from the implementation that resolved every reference on every
// row (commit b620646).
const (
	goldenMissing          = `sql eval error in nosuch: column "nosuch" does not exist; available columns: procurement.id, procurement.supplier_id, procurement.item, procurement.price, procurement.country`
	goldenMissingQualified = `sql eval error in p.nosuch: column "p.nosuch" does not exist; available columns: p.id, p.supplier_id, p.item, p.price, p.country, t.country, t.new_tariff, t.prev_tariff`
	goldenAmbiguous        = `sql eval error in country: column reference "country" is ambiguous (qualify it, e.g. p.country or t.country)`
)
