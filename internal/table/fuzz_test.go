package table_test

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"pneuma/internal/table"
	"pneuma/internal/value"
)

// naive is the row-major reference FuzzTableMatchesRows holds a table to:
// a schema and its rows, each cell a value.Value as it was built.
type naive struct {
	schema table.Schema
	rows   []table.Row
}

// project is naive's Project.
func (n naive) project(cols []int) naive {
	out := naive{schema: table.Schema{Name: n.schema.Name, Description: n.schema.Description}}
	for _, c := range cols {
		out.schema.Columns = append(out.schema.Columns, n.schema.Columns[c])
	}
	for _, row := range n.rows {
		r := make(table.Row, len(cols))
		for i, c := range cols {
			r[i] = row[c]
		}
		out.rows = append(out.rows, r)
	}
	return out
}

// withColumn is naive's WithColumn: column c set to col and cells, or added
// when c is past the last column.
func (n naive) withColumn(c int, col table.Column, cells []value.Value) naive {
	out := naive{schema: n.schema}
	out.schema.Columns = slices.Clone(n.schema.Columns)
	if c == len(out.schema.Columns) {
		out.schema.Columns = append(out.schema.Columns, col)
	} else {
		out.schema.Columns[c] = col
	}
	for r, row := range n.rows {
		row = slices.Clone(row)
		if c == len(row) {
			row = append(row, cells[r])
		} else {
			row[c] = cells[r]
		}
		out.rows = append(out.rows, row)
	}
	return out
}

// csv is WriteCSV's output by definition: the names, then each cell's
// rendering.
func (n naive) csv() string {
	var b bytes.Buffer
	w := csv.NewWriter(&b)
	w.Write(n.schema.ColumnNames())
	for _, row := range n.rows {
		rec := make([]string, len(row))
		for c, v := range row {
			rec[c] = v.String()
		}
		w.Write(rec)
	}
	w.Flush()
	return b.String()
}

// fuzzCells draws a column of n cells from one of the profile tests'
// column shapes, NULLs mixed in at a drawn rate.
func fuzzCells(r *rand.Rand, n int) []value.Value {
	shape := columnShapes[r.Intn(len(columnShapes))]
	nullEvery := []int{0, 2, 5}[r.Intn(3)]
	cells := make([]value.Value, n)
	for i := range cells {
		if nullEvery > 0 && r.Intn(nullEvery) == 0 {
			continue
		}
		cells[i] = columnGenerators[shape[r.Intn(len(shape))]](r)
	}
	return cells
}

// checkTable holds every reader of tb to the reference: At, Row, CellKind,
// AppendRender, WriteCSV and BuildProfile.
func checkTable(t *testing.T, what string, tb *table.Table, want naive) {
	t.Helper()
	if tb.NumRows() != len(want.rows) || tb.NumCols() != len(want.schema.Columns) {
		t.Fatalf("%s: %dx%d, want %dx%d", what, tb.NumRows(), tb.NumCols(), len(want.rows), len(want.schema.Columns))
	}
	if !reflect.DeepEqual(tb.Schema.Columns, want.schema.Columns) {
		t.Fatalf("%s: columns %+v, want %+v", what, tb.Schema.Columns, want.schema.Columns)
	}
	for r, row := range want.rows {
		for c, v := range row {
			if got := tb.At(r, c); got != v || tb.Vector(c).At(r) != v {
				t.Fatalf("%s: cell (%d,%d) = %#v, want %#v", what, r, c, got, v)
			}
		}
		if got := tb.Row(r); !slices.Equal(got, row) {
			t.Fatalf("%s: row %d = %v, want %v", what, r, got, row)
		}
	}
	for c := range want.schema.Columns {
		k := value.KindNull
		for _, row := range want.rows {
			k = value.UnifyKinds(k, row[c].Kind())
		}
		if got := tb.CellKind(c); got != k {
			t.Fatalf("%s: CellKind(%d) = %v, want %v", what, c, got, k)
		}
	}
	names := want.schema.ColumnNames()
	for _, m := range []int{-1, 0, 1, len(want.rows) / 2} {
		if got, ref := string(tb.AppendRender(nil, m)), referenceRender(names, want.rows, m); got != ref {
			t.Fatalf("%s: AppendRender(%d) =\n%s\nwant\n%s", what, m, got, ref)
		}
	}
	var b bytes.Buffer
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if got, ref := b.String(), want.csv(); got != ref {
		t.Fatalf("%s: WriteCSV =\n%s\nwant\n%s", what, got, ref)
	}
	if got, ref := tb.BuildProfile(), referenceProfile(want.rows, len(want.schema.Columns)); !reflect.DeepEqual(got, ref) {
		t.Fatalf("%s: profile\n got %+v\nwant %+v", what, got, ref)
	}
}

// FuzzTableMatchesRows builds tables of random columns of every kind,
// mixed kinds and NULLs included, three ways (MustAppend, FromRows and
// ColumnBuilders), puts them through Head, Project, WithColumn, Take and
// Append onto shared vectors, and holds every result to a naive row-major
// reference with checkTable. The input seeds the cell draws and picks the
// table's shape and the operations' arguments.
func FuzzTableMatchesRows(f *testing.F) {
	f.Add(uint64(1), []byte{3, 9, 4, 1, 2, 0})
	f.Add(uint64(7), []byte{1, 40, 0, 0, 0, 0})
	f.Add(uint64(24), []byte{5, 0, 2, 3, 1, 1})
	f.Add(uint64(99), []byte{2, 70, 65, 1, 0, 2})
	f.Add(uint64(5), []byte{0, 0})
	f.Add(uint64(6), []byte{4, 139, 130, 70, 9, 5})
	f.Fuzz(func(t *testing.T, seed uint64, shape []byte) {
		arg := func(i, n int) int {
			if i >= len(shape) || n == 0 {
				return 0
			}
			return int(shape[i]) % n
		}
		r := rand.New(rand.NewSource(int64(seed)))
		ncols, nrows := 1+arg(0, 5), arg(1, 140)
		want := naive{schema: table.Schema{Name: fmt.Sprint("t", seed), Description: "fuzzed"}}
		cols := make([][]value.Value, ncols)
		for c := range cols {
			cols[c] = fuzzCells(r, nrows)
			want.schema.Columns = append(want.schema.Columns, table.Column{Name: fmt.Sprint("c", c), Type: value.Kind(r.Intn(6))})
		}
		for i := range nrows {
			row := make(table.Row, ncols)
			for c := range cols {
				row[c] = cols[c][i]
			}
			want.rows = append(want.rows, row)
		}

		appended := table.New(want.schema)
		for _, row := range want.rows {
			appended.MustAppend(slices.Clone(row))
		}
		builders := make([]table.ColumnBuilder, ncols)
		for c := range builders {
			builders[c].Grow(arg(2, nrows+1))
			for _, v := range cols[c] {
				builders[c].Append(v)
			}
		}
		for _, b := range []struct {
			how string
			tb  *table.Table
		}{
			{"MustAppend", appended},
			{"FromRows", table.FromRows(want.schema, want.rows)},
			{"builders", table.FromColumns(want.schema, builders)},
		} {
			how, tb := b.how, b.tb
			checkTable(t, how, tb, want)

			k := arg(3, nrows+1)
			head := tb.Head(k)
			checkTable(t, how+"/Head", head, naive{want.schema, want.rows[:k]})

			perm := make([]int, 1+arg(4, 2*ncols))
			for i := range perm {
				perm[i] = r.Intn(ncols)
			}
			checkTable(t, how+"/Project", tb.Project(perm), want.project(perm))
			checkTable(t, how+"/Head/Project", head.Project(perm), naive{want.schema, want.rows[:k]}.project(perm))

			c := arg(5, ncols+1)
			cells := fuzzCells(r, nrows)
			var b table.ColumnBuilder
			for _, v := range cells {
				b.Append(v)
			}
			col := table.Column{Name: "new", Type: value.KindFloat}
			checkTable(t, how+"/WithColumn", tb.WithColumn(c, col, &b), want.withColumn(c, col, cells))

			pick := make([]int32, r.Intn(nrows+1))
			picked := naive{schema: want.schema}
			for i := range pick {
				pick[i] = int32(r.Intn(max(nrows, 1)))
				picked.rows = append(picked.rows, want.rows[pick[i]])
			}
			if nrows > 0 {
				checkTable(t, how+"/Take", tb.Take(pick), picked)
			}

			// Appending to a head copies its vectors first; appending to
			// the table it came from leaves the head as it was.
			extra := make(table.Row, ncols)
			for c := range extra {
				extra[c] = fuzzCells(r, 1)[0]
			}
			head.MustAppend(extra)
			checkTable(t, how+"/Head+row", head, naive{want.schema, append(slices.Clip(want.rows[:k]), extra)})
			checkTable(t, how+"/after Head+row", tb, want)
			short := tb.Head(k)
			tb.MustAppend(extra)
			checkTable(t, how+"/+row", tb, naive{want.schema, append(slices.Clip(want.rows), extra)})
			checkTable(t, how+"/Head after +row", short, naive{want.schema, want.rows[:k]})
		}
	})
}
