// Package table implements the in-memory relational store shared by every
// component: typed schemas, column-oriented tables, CSV import/export with
// type inference, and statistical profiling used by retrieval and grounding.
//
// A table is a schema, a row count and one column vector per schema column.
// A Vector's storage is picked from the cells it receives, not from the
// column's declared Type: []int64 or []float64 payloads, one bit a bool,
// Unix seconds plus nanoseconds for a time, uint32 codes into a dictionary
// of distinct strings kept in first-occurrence order, and a []value.Value
// fallback for a column whose non-NULL cells mix kinds. A typed vector
// keeps its NULLs in a bitmap, nil when it has none. At hands back each cell
// bit-identical to the value.Value it was built from, so Int(5) beside
// Float(5), -0.0, sub-second times and Bool(true) beside "true" all
// round-trip. Readers go through accessors — NumRows, At, Row, or Vector in
// a loop that reads one column — and builders through FromRows, FromColumns
// (with a ColumnBuilder per column) or Append.
//
// One rule governs who may write what: a column vector is never written once
// a table holds it, and tables share vectors. The corpus tables a Service
// owns are read by every session at once, and the tables a session
// materializes from them point at the same vectors rather than at copies:
// Head and Project are headers over their input's vectors, an op that
// changes one column (WithColumn) shares every other, and the SQL engine's
// relations are row numbers into them. Append is the builder's exception: a
// table that allocated its vectors itself (New, FromRows, FromColumns,
// Clone) appends past their end, which no table sharing them reads, and a
// table that shares its vectors copies them before its first Append.
//
// That rule is also what lets a table cache its Profile: BuildProfile
// publishes it through an atomic pointer, so any number of sessions may
// profile one shared table at once. A Profile holds only what a prompt
// reads: each column's Min and Max and its first 24 distinct renderings
// (Value.String) as samples. A column's stats depend only on its cells in
// row order, so a projection of a profiled table, and a Head of all its
// rows, carry the profile without reading a row.
//
// The text forms are append forms: Schema.AppendTo, Table.AppendRender (and
// value.Value.AppendTo for a cell) write into a caller's buffer, and
// Schema.String and Table.Render are one-line wrappers of them, so a caller
// that renders into a buffer of its own — the HTTP search reply — builds no
// intermediate strings.
package table

import (
	"fmt"
	"slices"
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

// Row is one tuple in schema order: what FromRows and Append take and what
// Table.Row returns. A table copies a Row's cells into its column vectors,
// so the Row stays the caller's.
type Row []value.Value

// Clone deep-copies the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Table is a schema, a row count and one column vector per schema column.
// Readers go through the accessors — NumRows, At, Row, or Vector for a loop
// that reads one column many times — and builders through FromRows,
// FromColumns or Append.
type Table struct {
	Schema Schema
	n      int
	// cols holds schema column c's cells in cols[c]. Tables share vectors;
	// only a table that owns its vectors writes them, and only by Append.
	cols []Vector
	// owned reports that cols' storage is the table's own: New, FromRows,
	// FromColumns and Clone allocate it, and an Append to any other table
	// first copies its cells into storage of its own.
	owned bool

	// profile caches BuildProfile; Append drops it. A table is profiled
	// once it is built: it is filled by FromRows, Append or an op before
	// the first BuildProfile. It also makes a Table uncopyable: pass *Table.
	profile atomic.Pointer[Profile]
}

// New creates an empty table with the given schema.
func New(schema Schema) *Table {
	return &Table{Schema: schema, cols: make([]Vector, len(schema.Columns)), owned: true}
}

// FromRows creates a table holding rows, each in schema order. The cells
// are copied into column vectors, so the rows stay the caller's.
func FromRows(schema Schema, rows []Row) *Table {
	cols := make([]ColumnBuilder, len(schema.Columns))
	for c := range cols {
		cols[c].Grow(len(rows))
	}
	for _, r := range rows {
		for c := range cols {
			cols[c].Append(r[c])
		}
	}
	t := FromColumns(schema, cols)
	t.n = len(rows) // a schema without columns still has its rows
	return t
}

// NumRows returns the row count.
func (t *Table) NumRows() int { return t.n }

// NumCols returns the column count.
func (t *Table) NumCols() int { return len(t.Schema.Columns) }

// At returns the cell of row r in schema column c.
func (t *Table) At(r, c int) value.Value { return t.cols[c].At(r) }

// Vector returns schema column c's cells. It is shared: never write it.
func (t *Table) Vector(c int) *Vector { return &t.cols[c] }

// Row returns a fresh copy of row r in schema order.
func (t *Table) Row(r int) Row { return t.AppendRow(make(Row, 0, len(t.cols)), r) }

// AppendRow appends row r's cells, in schema order, to dst.
func (t *Table) AppendRow(dst Row, r int) Row {
	for c := range t.cols {
		dst = append(dst, t.cols[c].At(r))
	}
	return dst
}

// CellKind returns what value.UnifyKinds makes of the kinds of column c's
// cells: KindNull when every cell is NULL.
func (t *Table) CellKind(c int) value.Kind {
	v := &t.cols[c]
	if v.vals == nil {
		for r := range t.n {
			if !bit(v.nulls, r) {
				return v.kind
			}
		}
		return value.KindNull
	}
	k := value.KindNull
	for _, x := range v.vals[:t.n] {
		k = value.UnifyKinds(k, x.Kind())
	}
	return k
}

// Append adds a row, validating arity. A table that allocated its vectors
// itself (see owned) writes the new cells past their ends, where no table
// sharing them reads, so a Head, Project or op output made from t earlier
// never sees the row; Append must not run while t or such a table is read.
// Any other table first copies its cells into vectors of its own.
func (t *Table) Append(r Row) error {
	if len(r) != t.NumCols() {
		return fmt.Errorf("table %s: row has %d values, schema has %d columns",
			t.Schema.Name, len(r), t.NumCols())
	}
	if !t.owned || len(t.cols) != len(r) {
		cols := make([]Vector, len(r))
		switch {
		case len(t.cols) == len(r):
			for c := range cols {
				cols[c] = t.cols[c].clone(t.n)
			}
		case t.n > 0:
			return fmt.Errorf("table %s: schema has %d columns, its vectors %d",
				t.Schema.Name, len(r), len(t.cols))
		}
		t.cols, t.owned = cols, true
	}
	for c, x := range r {
		t.cols[c].push(t.n, x, 0)
	}
	t.n++
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

// Clone deep-copies the table: its columns and every vector. It carries no
// profile.
func (t *Table) Clone() *Table {
	out := &Table{Schema: t.Schema, n: t.n, cols: make([]Vector, len(t.cols)), owned: true}
	out.Schema.Columns = slices.Clone(t.Schema.Columns)
	for c := range t.cols {
		out.cols[c] = t.cols[c].clone(t.n)
	}
	return out
}

// Head returns a new table over the first n rows. It shares t's vectors and
// column slice; only the schema's own fields (its name and description) may
// be set on the result without touching t. A head of every row is t under
// a new header: it carries t's published profile and allocates nothing but
// itself.
func (t *Table) Head(n int) *Table {
	if n >= t.n {
		out := &Table{Schema: t.Schema, n: t.n, cols: t.cols}
		out.profile.Store(t.profile.Load())
		return out
	}
	out := &Table{Schema: t.Schema, n: max(n, 0), cols: make([]Vector, len(t.cols))}
	for c := range t.cols {
		out.cols[c] = t.cols[c].head(out.n)
	}
	return out
}

// Project returns a table of schema columns cols of t, in that order (a
// column may repeat). The table name, description and the chosen columns
// are copied and the chosen vectors shared, so no cell is copied. When t's
// profile is published, the result's profile is published too, as the
// chosen columns' stats: a column's stats depend only on its cells in row
// order, which projection keeps, so no row is read.
func (t *Table) Project(cols []int) *Table {
	out := &Table{
		Schema: Schema{Name: t.Schema.Name, Description: t.Schema.Description, Columns: make([]Column, len(cols))},
		n:      t.n,
		cols:   make([]Vector, len(cols)),
	}
	for i, c := range cols {
		out.Schema.Columns[i] = t.Schema.Columns[c]
		out.cols[i] = t.cols[c]
		out.cols[i].index = nil
	}
	if p := t.profile.Load(); p != nil {
		sub := &Profile{Columns: make([]ColumnStats, len(cols))}
		for i, c := range cols {
			sub.Columns[i] = p.Columns[c]
		}
		out.profile.Store(sub)
	}
	return out
}

// WithColumn returns a table that shares t's vectors but for schema column
// c, which becomes col with b's cells; c == NumCols() adds it after the
// others. b must hold NumRows cells, and WithColumn leaves it empty. The
// result has no profile.
func (t *Table) WithColumn(c int, col Column, b *ColumnBuilder) *Table {
	if b.n != t.n {
		panic(fmt.Sprintf("table %s: column %q has %d cells, the table %d rows", t.Schema.Name, col.Name, b.n, t.n))
	}
	out := &Table{Schema: t.Schema, n: t.n}
	out.Schema.Columns = append(make([]Column, 0, len(t.cols)+1), t.Schema.Columns...)
	out.cols = append(make([]Vector, 0, len(t.cols)+1), t.cols...)
	if c == len(out.cols) {
		out.Schema.Columns = append(out.Schema.Columns, col)
		out.cols = append(out.cols, b.take())
	} else {
		out.Schema.Columns[c] = col
		out.cols[c] = b.take()
	}
	return out
}

// Take returns a table of t's rows at the given row numbers, in that order
// (a row may repeat), with cells of its own.
func (t *Table) Take(rows []int32) *Table {
	out := &Table{Schema: t.Schema, n: len(rows), cols: make([]Vector, len(t.cols)), owned: true}
	out.Schema.Columns = slices.Clone(t.Schema.Columns)
	for c := range t.cols {
		out.cols[c] = t.cols[c].take(rows)
	}
	return out
}

// ColumnStats is what a prompt reads of one column: its range and example
// values. NewTableInfo carries all three into a prompt; TableDocument and the
// static baselines index the samples.
type ColumnStats struct {
	// Min and Max are the least and greatest non-NULL cells by
	// value.Compare; both are NULL when every cell is NULL.
	Min, Max value.Value
	// SampleValues holds the first maxSamples distinct renderings of the
	// column's non-NULL cells, in row order; for low-cardinality columns
	// this is the full domain, which grounded filter-value matching
	// depends on.
	SampleValues []string
}

// Profile is a table's per-column stats, in schema order.
type Profile struct {
	Columns []ColumnStats
}

// maxSamples caps ColumnStats.SampleValues.
const maxSamples = 24

// BuildProfile computes a Profile one column vector at a time (see
// Vector.stats).
//
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
	p := Profile{Columns: make([]ColumnStats, len(t.cols))}
	for c := range t.cols {
		p.Columns[c] = t.cols[c].stats(t.n)
	}
	t.profile.Store(&p)
	return p
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
	n := t.n
	if maxRows >= 0 && n > maxRows {
		n = maxRows
	}
	var stack [32]int
	widths := stack[:0]
	for c := range cols {
		widths = append(widths, len(cols[c].Name))
	}
	for r := range n {
		for c := range cols {
			mark := len(dst)
			dst = t.cols[c].At(r).AppendTo(dst)
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
	for r := range n {
		dst = append(dst, '|')
		for c := range cols {
			mark := len(dst) + 1
			dst = t.cols[c].At(r).AppendTo(append(dst, ' '))
			if len(dst)-mark > maxCellBytes {
				dst = append(dst[:mark+maxCellBytes-3], "..."...)
			}
			dst = padCell(dst, mark, widths[c])
		}
		dst = append(dst, '\n')
	}
	if more := t.n - n; more > 0 {
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
