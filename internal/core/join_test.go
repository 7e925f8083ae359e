package core

import (
	"testing"

	"pneuma/internal/table"
	"pneuma/internal/value"
)

// joinNames are column names a CSV header may carry that are not plain SQL
// identifiers: reserved words, and names holding characters the lexer ends
// an identifier at (a double quote among them).
var joinNames = []string{
	"order", "from", "end", "group",
	"site.id", "km/h", `the "best" one`,
	"with space", "with-dash",
}

func joinSide(name string, cols []string, keys ...int64) *table.Table {
	t := table.New(table.Schema{Name: name})
	for _, c := range cols {
		t.Schema.Columns = append(t.Schema.Columns, table.Column{Name: c, Type: value.KindInt})
	}
	for _, k := range keys {
		t.MustAppend(table.Row{value.Int(k), value.Int(10 * k)})
	}
	return t
}

// TestEquiJoinQuotesIdentifiers joins on every name of joinNames, as the
// key of both sides and as a right-side column that is not the key: each
// must reach the SQL engine as the column it names.
func TestEquiJoinQuotesIdentifiers(t *testing.T) {
	for _, name := range joinNames {
		t.Run("key/"+name, func(t *testing.T) {
			left := joinSide("l", []string{name, "lv"}, 1, 2, 3)
			right := joinSide("r", []string{name, "rv"}, 2, 3, 4)
			out, err := equiJoin(left, right, name, name)
			if err != nil {
				t.Fatal(err)
			}
			if got := out.Schema.ColumnNames(); len(got) != 3 || got[0] != name || got[2] != "rv" {
				t.Fatalf("columns = %q, want [%q lv rv]", got, name)
			}
			if out.NumRows() != 2 {
				t.Fatalf("rows = %d, want 2", out.NumRows())
			}
			for ri := range out.NumRows() {
				row := out.Row(ri)
				if row[0].IntVal()*10 != row[2].IntVal() {
					t.Errorf("row %v pairs a key with another key's right row", row)
				}
			}
		})
		t.Run("column/"+name, func(t *testing.T) {
			left := joinSide("l", []string{"id", "lv"}, 1, 2, 3)
			right := joinSide("r", []string{"id", name}, 2, 3, 4)
			out, err := equiJoin(left, right, "id", "id")
			if err != nil {
				t.Fatal(err)
			}
			ci := out.Schema.ColumnIndex(name)
			if ci < 0 {
				t.Fatalf("columns = %q, want one named %q", out.Schema.ColumnNames(), name)
			}
			if out.NumRows() != 2 {
				t.Fatalf("rows = %d, want 2", out.NumRows())
			}
			for ri := range out.NumRows() {
				row := out.Row(ri)
				if row[0].IntVal()*10 != row[ci].IntVal() {
					t.Errorf("row %v: %q holds %v, want %d", row, name, row[ci], row[0].IntVal()*10)
				}
			}
		})
	}
}
