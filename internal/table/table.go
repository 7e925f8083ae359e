// Package table implements the in-memory relational store shared by every
// component: typed schemas, row-oriented tables, CSV import/export with type
// inference, and statistical profiling used by retrieval and grounding.
//
// One rule governs who may write what: a Row is immutable once it is in a
// table, and tables may share rows. The corpus tables a Service owns are read
// by every session at once, and the tables a session materializes from them
// (a projection's input, a join's operands, an op's unchanged rows, Head)
// point at the same Row values rather than at copies. Code that needs a cell
// to differ builds a new Row and puts it in its own table's Rows; it never
// assigns into, or appends onto, a Row it was handed. Clone is the deep copy
// for a caller that will write cells in place.
//
// The rows of one table may share a backing array: a projection or a query
// result cuts all of its rows from one allocation. Each such Row is
// capacity-limited (its cap is its len), so an append onto it copies rather
// than running into its neighbour.
//
// That rule is also what lets a table cache its Profile: BuildProfile
// publishes it through an atomic pointer, so any number of sessions may
// profile one shared table at once. A Profile counts a column's distinct
// values as distinct renderings (Value.String); columnStats says when it can
// tell them apart without rendering them.
//
// The text forms are append forms: Schema.AppendTo, Table.AppendRender (and
// value.Value.AppendTo for a cell) write into a caller's buffer, and
// Schema.String and Table.Render are one-line wrappers of them, so a caller
// that renders into a buffer of its own — the HTTP search reply — builds no
// intermediate strings.
package table

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"unicode/utf8"

	"pneuma/internal/value"
)

// Column describes one attribute of a schema.
type Column struct {
	// Name is the physical column name (e.g. "k_ppm").
	Name string
	// Type is the inferred or declared value kind.
	Type value.Kind
	// Description is human/LLM-facing documentation (e.g. "Potassium
	// concentration in parts per million"). Retrieval embeds it.
	Description string
	// Unit is an optional measurement unit ("ppm", "usd", "°C").
	Unit string
}

// Schema is an ordered list of columns plus table-level metadata.
type Schema struct {
	// Name is the table name.
	Name string
	// Description documents the table's contents for retrieval.
	Description string
	Columns     []Column
}

// ColumnNames returns the column names in order.
func (s Schema) ColumnNames() []string {
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Name
	}
	return out
}

// ColumnIndex returns the position of the named column (case-insensitive),
// or -1.
func (s Schema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Column returns the named column and whether it exists.
func (s Schema) Column(name string) (Column, bool) {
	i := s.ColumnIndex(name)
	if i < 0 {
		return Column{}, false
	}
	return s.Columns[i], true
}

// String renders the schema as "name(col type, ...)"; it wraps AppendTo.
func (s Schema) String() string { return string(s.AppendTo(nil)) }

// AppendTo appends the schema's "name(col type, ...)" rendering to dst.
func (s Schema) AppendTo(dst []byte) []byte {
	dst = append(dst, s.Name...)
	dst = append(dst, '(')
	for i := range s.Columns {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = append(dst, s.Columns[i].Name...)
		dst = append(dst, ' ')
		dst = append(dst, s.Columns[i].Type.String()...)
	}
	return append(dst, ')')
}

// Row is one tuple, positionally aligned with the schema's columns. A Row is
// immutable once appended to a table: other tables may hold the same Row, so
// a changed tuple is a new Row (Clone, then write the copy), never a write or
// an append through this one.
type Row []value.Value

// Clone deep-copies the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Table is a schema plus rows.
type Table struct {
	Schema Schema
	// Rows is the table's own index of its tuples: the table may replace,
	// reorder or extend the slice, but the Row values in it may be shared
	// with other tables and are never written (see Row).
	Rows []Row

	// profile caches BuildProfile; Append drops it. A table is profiled
	// once it is built: code that fills Rows directly does so before the
	// first BuildProfile. It also makes a Table uncopyable: pass *Table.
	profile atomic.Pointer[Profile]
}

// New creates an empty table with the given schema.
func New(schema Schema) *Table { return &Table{Schema: schema} }

// NumRows returns the row count.
func (t *Table) NumRows() int { return len(t.Rows) }

// NumCols returns the column count.
func (t *Table) NumCols() int { return len(t.Schema.Columns) }

// Append adds a row, validating arity.
func (t *Table) Append(r Row) error {
	if len(r) != t.NumCols() {
		return fmt.Errorf("table %s: row has %d values, schema has %d columns",
			t.Schema.Name, len(r), t.NumCols())
	}
	t.Rows = append(t.Rows, r)
	t.profile.Store(nil)
	return nil
}

// MustAppend is Append that panics on arity mismatch; used by generators
// whose arity is statically correct.
func (t *Table) MustAppend(r Row) {
	if err := t.Append(r); err != nil {
		panic(err)
	}
}

// Clone deep-copies the table: columns, row index and every row. It is for a
// caller that will write cells in place; one that only renames the table,
// edits columns or replaces some rows can share the rows instead.
func (t *Table) Clone() *Table {
	out := &Table{Schema: t.Schema}
	out.Schema.Columns = append([]Column(nil), t.Schema.Columns...)
	out.Rows = make([]Row, len(t.Rows))
	for i, r := range t.Rows {
		out.Rows[i] = r.Clone()
	}
	return out
}

// Head returns a new table header over the first n rows. It shares the rows,
// the row index and the column slice with t; only the schema's own fields
// (its name and description) may be set on the result without touching t.
func (t *Table) Head(n int) *Table {
	if n > len(t.Rows) {
		n = len(t.Rows)
	}
	return &Table{Schema: t.Schema, Rows: t.Rows[:n]}
}

// ColumnStats summarizes one column for profiling and grounding.
type ColumnStats struct {
	Name      string
	Type      value.Kind
	NullCount int
	Distinct  int
	Min       value.Value
	Max       value.Value
	Mean      float64 // numeric columns only
	// SampleValues holds up to 24 distinct example values as strings; for
	// low-cardinality columns this is the full domain, which grounded
	// filter-value matching depends on.
	SampleValues []string
}

// Profile summarizes a table: per-column stats plus row/col counts.
type Profile struct {
	TableName string
	NumRows   int
	NumCols   int
	Columns   []ColumnStats
}

// BuildProfile computes a Profile. Distinct counts are exact (hash set).
// The result is cached until the table grows via Append (a table is built
// before it is profiled; see Table.profile); retrieval and planning profile
// the same corpus tables on every call, so caching matters. The cache is an
// atomic pointer: any number of goroutines may profile one table at once,
// and if two of them find it empty both compute the same Profile and the
// later store wins.
func (t *Table) BuildProfile() Profile {
	if p := t.profile.Load(); p != nil {
		return *p
	}
	p := Profile{TableName: t.Schema.Name, NumRows: t.NumRows(), NumCols: t.NumCols()}
	for ci, col := range t.Schema.Columns {
		p.Columns = append(p.Columns, columnStats(t.Rows, ci, col))
	}
	t.profile.Store(&p)
	return p
}

// columnStats profiles one column. Two cells are the same distinct value
// when they render the same, and for int, float, bool and string cells
// rendering is injective, so a column whose non-NULL cells all have one of
// those kinds counts distinct values by the cell's 8-byte payload or its
// string and renders only the sample values. A time column, or one that
// mixes kinds (Int(5) and Float(5) both render "5"), is counted by
// rendering every cell. Formatting every float of a fresh table to count
// them was most of a profile's cost: the seeker-turns benchmark's
// table.build_profile_us went from 17.2 to 8.5 ms.
func columnStats(rows []Row, ci int, col Column) ColumnStats {
	kind := value.KindNull
	for _, row := range rows {
		if !row[ci].IsNull() {
			kind = row[ci].Kind()
			break
		}
	}
	var cs ColumnStats
	homogeneous := false
	switch kind {
	case value.KindInt:
		cs, homogeneous = scanColumn(rows, ci, col, kind, func(v value.Value) uint64 { return uint64(v.IntVal()) })
	case value.KindFloat:
		cs, homogeneous = scanColumn(rows, ci, col, kind, func(v value.Value) uint64 { return math.Float64bits(v.FloatVal()) })
	case value.KindBool:
		cs, homogeneous = scanColumn(rows, ci, col, kind, value.Value.BoolVal)
	case value.KindString:
		cs, homogeneous = scanColumn(rows, ci, col, kind, value.Value.StringVal)
	}
	if !homogeneous {
		cs, _ = scanColumn(rows, ci, col, value.KindNull, value.Value.String)
	}
	return cs
}

// scanColumn computes a column's stats, telling distinct values apart by
// key; a key of type string must be the cell's rendering. With kind set, a non-NULL cell of any other kind ends the scan and
// reports false; with kind KindNull every cell is accepted.
func scanColumn[K comparable](rows []Row, ci int, col Column, kind value.Kind, key func(value.Value) K) (ColumnStats, bool) {
	cs := ColumnStats{Name: col.Name, Type: col.Type}
	distinct := make(map[K]struct{})
	var sum float64
	var numCount int
	first := true
	for _, row := range rows {
		v := row[ci]
		if v.IsNull() {
			cs.NullCount++
			continue
		}
		if kind != value.KindNull && v.Kind() != kind {
			return ColumnStats{}, false
		}
		k := key(v)
		if _, ok := distinct[k]; !ok {
			distinct[k] = struct{}{}
			if len(cs.SampleValues) < 24 {
				sample, rendered := any(k).(string) // a string key is the cell's rendering
				if !rendered {
					sample = v.String()
				}
				cs.SampleValues = append(cs.SampleValues, sample)
			}
		}
		if v.Kind().Numeric() {
			sum += v.FloatVal()
			numCount++
		}
		if first {
			cs.Min, cs.Max = v, v
			first = false
		} else {
			if value.Compare(v, cs.Min) < 0 {
				cs.Min = v
			}
			if value.Compare(v, cs.Max) > 0 {
				cs.Max = v
			}
		}
	}
	cs.Distinct = len(distinct)
	if numCount > 0 {
		cs.Mean = sum / float64(numCount)
	}
	return cs, true
}

// Render pretty-prints the table (up to maxRows rows, every row when maxRows
// is negative) for the CLI state view: a fixed-width ASCII grid like the
// paper's Figure 2 sample rows. It wraps AppendRender.
func (t *Table) Render(maxRows int) string { return string(t.AppendRender(nil, maxRows)) }

// maxCellBytes caps a rendered cell: a longer one is cut to its first
// maxCellBytes-3 bytes, which may end inside a rune, followed by "...".
const maxCellBytes = 24

// AppendRender appends Render's grid to dst. It takes two passes over the
// shown cells, both formatting each cell into dst's spare capacity: the first
// measures each column's width in bytes and takes the cell back off, the
// second writes it. A cell or header is then padded with spaces up to its
// column's width counted in runes — widths in bytes and padding in runes is
// how the grid has always been drawn (fmt's %-*s pads by rune count), and
// the prompts built from it depend on those bytes.
func (t *Table) AppendRender(dst []byte, maxRows int) []byte {
	cols := t.Schema.Columns
	n := len(t.Rows)
	if maxRows >= 0 && n > maxRows {
		n = maxRows
	}
	var stack [32]int
	widths := stack[:0]
	for c := range cols {
		widths = append(widths, len(cols[c].Name))
	}
	for _, row := range t.Rows[:n] {
		for c := range cols {
			mark := len(dst)
			dst = row[c].AppendTo(dst)
			widths[c] = max(widths[c], min(len(dst)-mark, maxCellBytes))
			dst = dst[:mark]
		}
	}

	dst = append(dst, '|')
	for c := range cols {
		mark := len(dst) + 1
		dst = append(append(dst, ' '), cols[c].Name...)
		dst = padCell(dst, mark, widths[c])
	}
	dst = append(dst, "\n|"...)
	for _, w := range widths {
		for i := 0; i < w+2; i++ {
			dst = append(dst, '-')
		}
		dst = append(dst, '|')
	}
	dst = append(dst, '\n')
	for _, row := range t.Rows[:n] {
		dst = append(dst, '|')
		for c := range cols {
			mark := len(dst) + 1
			dst = row[c].AppendTo(append(dst, ' '))
			if len(dst)-mark > maxCellBytes {
				dst = append(dst[:mark+maxCellBytes-3], "..."...)
			}
			dst = padCell(dst, mark, widths[c])
		}
		dst = append(dst, '\n')
	}
	if more := len(t.Rows) - n; more > 0 {
		dst = append(dst, "... ("...)
		dst = strconv.AppendInt(dst, int64(more), 10)
		dst = append(dst, " more rows)\n"...)
	}
	return dst
}

// padCell pads the cell written to dst since mark to width runes and closes
// it with " |".
func padCell(dst []byte, mark, width int) []byte {
	for pad := width - utf8.RuneCount(dst[mark:]); pad > 0; pad-- {
		dst = append(dst, ' ')
	}
	return append(dst, " |"...)
}
