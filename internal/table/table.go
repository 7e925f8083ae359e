// Package table implements the in-memory relational store shared by every
// component: typed schemas, row-oriented tables, CSV import/export with type
// inference, and statistical profiling used by retrieval and grounding.
//
// A table is a schema over an index of storage rows, and column positions
// map each schema column to a cell of a storage row (Table.Pos; none means
// the identity). Readers go through accessors — NumRows, At, Row, or Stored
// with Pos in a loop that resolves each column's position once — so a
// table's layout is its own business. Builders hand rows over with FromRows.
//
// One rule governs who may write what: a Row is immutable once it is in a
// table, and tables may share rows. The corpus tables a Service owns are read
// by every session at once, and the tables a session materializes from them
// (a projection's input, a join's operands, an op's unchanged rows, Head)
// point at the same Row values rather than at copies. Code that needs a cell
// to differ builds a new Row and puts it in its own table's row index
// (Share, then SetCell); it never assigns into, or appends onto, a Row it was
// handed. Clone is the deep copy for a caller that will write cells in place.
// The rule covers positions too: a positions slice is never written once a
// table holds it.
//
// A projection (Project, which transform.Keep is) copies no cell: it is a
// header over its input's row index with the chosen columns' positions, so
// it costs O(columns) and pins every cell of its input's rows, the dropped
// columns included, for as long as it lives. Appending to a projection
// first copies its rows into schema order.
//
// The rows of one table may share a backing array: a query result or a
// decoded document cuts all of its rows from one allocation. Each such Row
// is capacity-limited (its cap is its len), so an append onto it copies
// rather than running into its neighbour.
//
// That rule is also what lets a table cache its Profile: BuildProfile
// publishes it through an atomic pointer, so any number of sessions may
// profile one shared table at once. A Profile holds only what a prompt
// reads: each column's Min and Max and its first 24 distinct renderings
// (Value.String) as samples, found in one pass over the rows that keeps no
// set of the values it has seen. A column's stats depend only on its cells
// in row order, so a projection of a profiled table, and a Head of all its
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

// Row is one tuple. A row handed to FromRows or Append, or returned by
// Table.Row, is aligned with the schema's columns; a storage row
// (Table.Stored) is read through the table's positions. A Row is immutable
// once it is in a table: other tables may hold the same Row, so
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
//
// A table stores its rows as an index of storage rows, and schema column c
// of row r is Stored()[r][Pos(c)]. For a table built from rows in schema
// order the positions are the identity; a projection (Project) is a header
// over its input's storage rows whose positions pick and reorder their
// cells, so it copies no cell. Readers go through the accessors: NumRows,
// At and Row for a cell or a row in schema order, and Stored with Pos for a
// loop that resolves each column's position once rather than once per cell.
type Table struct {
	Schema Schema
	// rows is the table's own index of its storage rows: the table may
	// replace or extend the slice, but the Row values in it may be shared
	// with other tables and are never written (see Row).
	rows []Row
	// pos maps schema column c to rows[r][pos[c]]; nil is the identity. A
	// pos slice is never written once a table holds it, so tables share it.
	pos []int

	// profile caches BuildProfile; Append drops it. A table is profiled
	// once it is built: it is filled by FromRows, Append or an op before
	// the first BuildProfile. It also makes a Table uncopyable: pass *Table.
	profile atomic.Pointer[Profile]
}

// New creates an empty table with the given schema.
func New(schema Schema) *Table { return &Table{Schema: schema} }

// FromRows creates a table over rows, each in schema order. The table takes
// rows as its row index: the caller hands the slice over and neither writes
// nor appends to it afterwards.
func FromRows(schema Schema, rows []Row) *Table { return &Table{Schema: schema, rows: rows} }

// NumRows returns the row count.
func (t *Table) NumRows() int { return len(t.rows) }

// NumCols returns the column count.
func (t *Table) NumCols() int { return len(t.Schema.Columns) }

// Pos returns the position of schema column c in a storage row.
func (t *Table) Pos(c int) int {
	if t.pos == nil {
		return c
	}
	return t.pos[c]
}

// Stored returns the row index: schema column c of row r is
// Stored()[r][Pos(c)]. A storage row may be wider than the schema and is
// shared; the caller never writes, appends to or reorders the slice or its
// rows.
func (t *Table) Stored() []Row { return t.rows }

// At returns the cell of row r in schema column c.
func (t *Table) At(r, c int) value.Value { return t.rows[r][t.Pos(c)] }

// Row returns row r in schema order. For a table whose positions are the
// identity it is the stored row itself, shared: never write it. For a
// projection it is a fresh copy.
func (t *Table) Row(r int) Row {
	if t.pos == nil {
		return t.rows[r]
	}
	return t.AppendRow(make(Row, 0, len(t.pos)), r)
}

// AppendRow appends row r's cells, in schema order, to dst.
func (t *Table) AppendRow(dst Row, r int) Row {
	row := t.rows[r]
	if t.pos == nil {
		return append(dst, row...)
	}
	for _, p := range t.pos {
		dst = append(dst, row[p])
	}
	return dst
}

// positions appends every column's storage position to dst, in schema order.
func (t *Table) positions(dst []int) []int {
	for c := range t.Schema.Columns {
		dst = append(dst, t.Pos(c))
	}
	return dst
}

// Append adds a row, validating arity. Appending to a projection first
// copies its rows into schema order (one slab, one new row index), so the
// new row and the old ones share one layout and the input's rows are left
// alone.
func (t *Table) Append(r Row) error {
	if len(r) != t.NumCols() {
		return fmt.Errorf("table %s: row has %d values, schema has %d columns",
			t.Schema.Name, len(r), t.NumCols())
	}
	if t.pos != nil {
		t.rows, t.pos = t.compact(), nil
	}
	t.rows = append(t.rows, r)
	t.profile.Store(nil)
	return nil
}

// compact returns a new row index holding t's rows copied into schema
// order, cut capacity-limited from one slab.
func (t *Table) compact() []Row {
	cells := make([]value.Value, 0, len(t.rows)*t.NumCols())
	rows := make([]Row, len(t.rows))
	for r := range rows {
		start := len(cells)
		cells = t.AppendRow(cells, r)
		rows[r] = cells[start:len(cells):len(cells)]
	}
	return rows
}

// MustAppend is Append that panics on arity mismatch; used by generators
// whose arity is statically correct.
func (t *Table) MustAppend(r Row) {
	if err := t.Append(r); err != nil {
		panic(err)
	}
}

// Clone deep-copies the table: columns, row index and every row, in schema
// order. It is for a caller that will write cells in place; one that only
// renames the table, edits columns or replaces some rows can share the rows
// instead (Share).
func (t *Table) Clone() *Table {
	out := &Table{Schema: t.Schema, rows: t.compact()}
	out.Schema.Columns = append([]Column(nil), t.Schema.Columns...)
	return out
}

// Head returns a new table header over the first n rows. It shares the rows,
// the row index, the positions and the column slice with t; only the
// schema's own fields (its name and description) may be set on the result
// without touching t. The index is capacity-limited, so an Append onto the
// head copies it. A head of every row carries t's published profile.
func (t *Table) Head(n int) *Table {
	if n > len(t.rows) {
		n = len(t.rows)
	}
	out := &Table{Schema: t.Schema, rows: t.rows[:n:n], pos: t.pos}
	if n == len(t.rows) {
		out.profile.Store(t.profile.Load())
	}
	return out
}

// Project returns a header over t's rows holding schema columns cols of t,
// in that order (a column may repeat): the table name, description and the
// chosen columns are copied, the row index is shared capacity-limited, and
// the positions are t's composed with cols, so no cell is copied. The
// result pins all of t's storage rows. When t's profile is published, the
// result's profile is published too, as the chosen columns' stats: a
// column's stats depend only on its cells in row order, which projection
// keeps, so no row is read.
func (t *Table) Project(cols []int) *Table {
	out := &Table{
		Schema: Schema{Name: t.Schema.Name, Description: t.Schema.Description, Columns: make([]Column, len(cols))},
		rows:   t.rows[:len(t.rows):len(t.rows)],
		pos:    make([]int, len(cols)),
	}
	identity := t.pos == nil && len(cols) == t.NumCols()
	for i, c := range cols {
		out.Schema.Columns[i] = t.Schema.Columns[c]
		out.pos[i] = t.Pos(c)
		identity = identity && c == i
	}
	if identity {
		out.pos = nil
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

// Share starts an edit of t that leaves t alone: a table with t's schema
// (with a column slice of its own), positions and rows, in a row index of
// its own, and no profile. The caller may edit its columns and replace rows
// with SetCell, and pays only for the rows it replaces.
func (t *Table) Share() *Table {
	out := &Table{Schema: t.Schema, rows: append([]Row(nil), t.rows...), pos: t.pos}
	out.Schema.Columns = append([]Column(nil), t.Schema.Columns...)
	return out
}

// SetCell replaces row r with a copy that holds v in schema column c, since
// the row it held until now may belong to other tables. It is only for a
// table whose row index is its own — one from Share — before anyone
// profiles it or makes a Head or Project of it, which share that index.
func (t *Table) SetCell(r, c int, v value.Value) {
	row := t.rows[r].Clone()
	row[t.Pos(c)] = v
	t.rows[r] = row
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

// BuildProfile computes a Profile in one pass over the rows, each row's
// cells in turn: walking one column down the rows instead touches a new row
// for every cell, which was half a cold profile's time. Two cells are the
// same sample when they render the same. A cell is probed against the cells
// its column's samples were rendered from, and probing stops once
// maxSamples are found; a sample's cell is found again through the row it
// was first seen in. For two cells of one kind among int, float, bool and
// string, rendering is injective, so the probe compares them with == (a
// Value's kind and payload bits) and renders nothing. Any other pair — a
// time, whose rendering drops sub-seconds, or two kinds that can render
// alike (Int(5) and Float(5), Bool(true) and "true") — compares the cell's
// rendering, made once into a stack buffer, with the stored sample.
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
	p := Profile{Columns: make([]ColumnStats, len(t.Schema.Columns))}
	seenAt := make([][maxSamples]int32, len(p.Columns))
	var stack [32]int
	pos := t.positions(stack[:0])
	var buf [64]byte
	for ri, row := range t.rows {
		for ci := range p.Columns {
			v := row[pos[ci]]
			if v.IsNull() {
				continue
			}
			cs := &p.Columns[ci]
			if cs.Min.IsNull() {
				cs.Min, cs.Max = v, v
			} else {
				if value.Compare(v, cs.Min) < 0 {
					cs.Min = v
				}
				if value.Compare(v, cs.Max) > 0 {
					cs.Max = v
				}
			}
			n := len(cs.SampleValues)
			if n == maxSamples {
				continue
			}
			payload := v.Kind() != value.KindTime
			var r []byte
			seen := false
			for j := 0; j < n && !seen; j++ {
				if s := t.rows[seenAt[ci][j]][pos[ci]]; payload && s.Kind() == v.Kind() {
					seen = s == v
					continue
				}
				if r == nil {
					r = v.AppendTo(buf[:0])
				}
				seen = string(r) == cs.SampleValues[j]
			}
			if !seen {
				seenAt[ci][n] = int32(ri)
				cs.SampleValues = append(cs.SampleValues, v.String())
			}
		}
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
	n := len(t.rows)
	if maxRows >= 0 && n > maxRows {
		n = maxRows
	}
	var stack, posStack [32]int
	widths := stack[:0]
	for c := range cols {
		widths = append(widths, len(cols[c].Name))
	}
	pos := t.positions(posStack[:0])
	for _, row := range t.rows[:n] {
		for c := range cols {
			mark := len(dst)
			dst = row[pos[c]].AppendTo(dst)
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
	for _, row := range t.rows[:n] {
		dst = append(dst, '|')
		for c := range cols {
			mark := len(dst) + 1
			dst = row[pos[c]].AppendTo(append(dst, ' '))
			if len(dst)-mark > maxCellBytes {
				dst = append(dst[:mark+maxCellBytes-3], "..."...)
			}
			dst = padCell(dst, mark, widths[c])
		}
		dst = append(dst, '\n')
	}
	if more := len(t.rows) - n; more > 0 {
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
