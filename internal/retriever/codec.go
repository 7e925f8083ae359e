package retriever

import (
	"fmt"
	"sort"
	"time"

	"pneuma/internal/docs"
	"pneuma/internal/table"
	"pneuma/internal/value"
	"pneuma/internal/wire"
)

// This file is the binary document codec shared by segment records and
// snapshot files (format 2). Unlike the JSON-lines codec it replaces,
// table cells are stored natively — kind byte plus an exact payload
// (zigzag-varint ints, raw IEEE 754 doubles, second+nanosecond
// timestamps) — instead of round-tripping through canonical strings, so
// sub-second timestamps and string literals that look like NULL ("null",
// "NA") survive a flush/reopen byte-identically.

// Cell kind bytes. They mirror value.Kind but are pinned independently so
// a reordering of the in-memory enum can never silently change the disk
// format.
const (
	cellNull   = 0
	cellBool   = 1
	cellInt    = 2
	cellFloat  = 3
	cellString = 4
	cellTime   = 5
)

// encodeValue appends one table cell.
func encodeValue(w *wire.Writer, v value.Value) {
	switch v.Kind() {
	case value.KindBool:
		w.Byte(cellBool)
		if v.BoolVal() {
			w.Byte(1)
		} else {
			w.Byte(0)
		}
	case value.KindInt:
		w.Byte(cellInt)
		w.Varint(v.IntVal())
	case value.KindFloat:
		w.Byte(cellFloat)
		w.Float64(v.FloatVal())
	case value.KindString:
		w.Byte(cellString)
		w.String(v.StringVal())
	case value.KindTime:
		// Second + nanosecond resolution; the location is normalized to
		// UTC (the instant is exact, the wall-clock zone is not kept).
		w.Byte(cellTime)
		t := v.TimeVal()
		w.Varint(t.Unix())
		w.Uvarint(uint64(t.Nanosecond()))
	default:
		w.Byte(cellNull)
	}
}

// decodeValue reads one table cell.
func decodeValue(r *wire.Reader) (value.Value, error) {
	switch k := r.Byte(); k {
	case cellNull:
		return value.Null(), nil
	case cellBool:
		return value.Bool(r.Byte() != 0), nil
	case cellInt:
		return value.Int(r.Varint()), nil
	case cellFloat:
		return value.Float(r.Float64()), nil
	case cellString:
		return value.String(r.String()), nil
	case cellTime:
		sec := r.Varint()
		nsec := r.Uvarint()
		return value.Time(time.Unix(sec, int64(nsec)).UTC()), nil
	default:
		return value.Null(), fmt.Errorf("retriever: unknown cell kind %d", k)
	}
}

// encodeDoc appends a document's durable form (everything except ID,
// which the record carries, and Score, which is query-scoped). Meta keys
// are written in sorted order so equal documents encode to equal bytes.
func encodeDoc(w *wire.Writer, d docs.Document) {
	w.String(string(d.Kind))
	w.String(d.Title)
	w.String(d.Content)
	w.String(d.Source)
	w.Uvarint(uint64(len(d.Meta)))
	if len(d.Meta) > 0 {
		keys := make([]string, 0, len(d.Meta))
		for k := range d.Meta {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			w.String(k)
			w.String(d.Meta[k])
		}
	}
	if d.Table == nil {
		w.Byte(0)
		return
	}
	w.Byte(1)
	t := d.Table
	w.String(t.Schema.Name)
	w.String(t.Schema.Description)
	w.Uvarint(uint64(len(t.Schema.Columns)))
	for _, c := range t.Schema.Columns {
		w.String(c.Name)
		w.Byte(byte(c.Type))
		w.String(c.Description)
		w.String(c.Unit)
	}
	w.Uvarint(uint64(t.NumRows()))
	// Total cell count lets the decoder size every column once.
	w.Uvarint(uint64(t.NumRows() * t.NumCols()))
	for r := range t.NumRows() {
		w.Uvarint(uint64(t.NumCols()))
		for c := range t.NumCols() {
			encodeValue(w, t.At(r, c))
		}
	}
}

// decodeDoc reads a document encoded by encodeDoc, attaching the given ID.
func decodeDoc(r *wire.Reader, id string) (docs.Document, error) {
	d := docs.Document{
		ID:      id,
		Kind:    docs.Kind(r.String()),
		Title:   r.String(),
		Content: r.String(),
		Source:  r.String(),
	}
	if nm := int(r.Uvarint()); nm > 0 {
		if nm > r.Remaining() {
			return d, fmt.Errorf("retriever: doc %q claims %d meta entries in %d bytes", id, nm, r.Remaining())
		}
		d.Meta = make(map[string]string, nm)
		for i := 0; i < nm; i++ {
			k := r.String()
			d.Meta[k] = r.String()
		}
	}
	if r.Byte() == 0 {
		return d, r.Err()
	}
	schema := table.Schema{Name: r.String(), Description: r.String()}
	ncols := int(r.Uvarint())
	if ncols > r.Remaining() {
		return d, fmt.Errorf("retriever: doc %q claims %d columns in %d bytes", id, ncols, r.Remaining())
	}
	for i := 0; i < ncols; i++ {
		schema.Columns = append(schema.Columns, table.Column{
			Name:        r.String(),
			Type:        value.Kind(r.Byte()),
			Description: r.String(),
			Unit:        r.String(),
		})
	}
	nrows := int(r.Uvarint())
	cells := int(r.Uvarint())
	if nrows > r.Remaining() || cells > r.Remaining() {
		return d, fmt.Errorf("retriever: doc %q claims %d rows / %d cells in %d bytes", id, nrows, cells, r.Remaining())
	}
	// Each row's cells go to their columns' builders; a row must hold one
	// cell per column, so the claimed cells bound every column's size.
	cols := make([]table.ColumnBuilder, ncols)
	for c := range cols {
		cols[c].Grow(min(nrows, cells/ncols))
	}
	for i := 0; i < nrows; i++ {
		arity := int(r.Uvarint())
		if arity != ncols || cells < ncols*(i+1) {
			return d, fmt.Errorf("retriever: doc %q row %d claims %d cells in %d bytes", id, i, arity, r.Remaining())
		}
		for j := 0; j < arity; j++ {
			v, err := decodeValue(r)
			if err != nil {
				return d, err
			}
			cols[j].Append(v)
		}
	}
	d.Table = table.FromColumns(schema, cols)
	return d, r.Err()
}
