package table

import (
	"fmt"
	"slices"

	"pneuma/internal/value"
)

// Vector is one column's cells, stored by the kind of the cells it was
// built from rather than by the column's declared Type:
//
//   - ints and floats as their 8-byte payloads (value.Value.Bits);
//   - bools as one bit a cell;
//   - times as Unix seconds plus a uint32 of nanoseconds;
//   - strings as uint32 codes into a dictionary of the distinct strings,
//     kept in the order their first cells arrived;
//   - a column whose non-NULL cells mix kinds as the value.Values
//     themselves.
//
// NULL cells of a typed vector are bits of a null bitmap, which is nil when
// the column has no NULL; a vector of only NULLs stores nothing. At hands
// back every cell bit-identical to the value.Value it was built from.
//
// A Vector is never written once a table holds it (see the package doc):
// read it with At, from Table.Vector or through the table's accessors.
type Vector struct {
	// kind is the kind of every non-NULL cell. KindNull means that every
	// cell is NULL or, when vals is set, that the cells mix kinds.
	kind value.Kind
	// words holds an int's, a float's or a time's payload, one word a
	// cell, or a bool column's cells, one bit a cell.
	words []uint64
	// aux holds a string cell's dictionary code or a time's nanoseconds.
	aux []uint32
	// dict holds a string column's distinct strings.
	dict []string
	// vals holds every cell, NULLs included, of a column of mixed kinds.
	vals []value.Value
	// nulls has bit r set when cell r is NULL. It may end before the last
	// cell: the bits past its end are clear.
	nulls []uint64
	// index maps dict's strings to their codes while a table that owns
	// the vector appends to it; nil while dict is short enough to scan.
	index map[string]uint32
}

// bit reports bit r of the bitmap w; bits past w's end are clear.
func bit(w []uint64, r int) bool {
	i := r >> 6
	return i < len(w) && w[i]&(1<<(r&63)) != 0
}

// putBit writes bit r of w, growing w by zero words up to the one that
// holds r.
func putBit(w []uint64, r int, on bool) []uint64 {
	for len(w) <= r>>6 {
		w = append(w, 0)
	}
	if on {
		w[r>>6] |= 1 << (r & 63)
	} else {
		w[r>>6] &^= 1 << (r & 63)
	}
	return w
}

// words64 is the number of 64-bit words n bits take.
func words64(n int) int { return (n + 63) >> 6 }

// At returns cell r.
func (v *Vector) At(r int) value.Value {
	if v.nulls != nil && bit(v.nulls, r) {
		return value.Null()
	}
	switch v.kind {
	case value.KindInt, value.KindFloat:
		return value.FromBits(v.kind, v.words[r], 0)
	case value.KindString:
		return value.String(v.dict[v.aux[r]])
	case value.KindBool:
		return value.Bool(v.words[r>>6]&(1<<(r&63)) != 0)
	case value.KindTime:
		return value.FromBits(value.KindTime, v.words[r], v.aux[r])
	}
	if v.vals != nil {
		return v.vals[r]
	}
	return value.Null()
}

// push appends x as cell n, n being the vector's length. A first
// allocation holds hint cells, or 8 when hint is 0. A cell whose kind
// differs from the cells before it turns the vector into a value.Value
// vector.
func (v *Vector) push(n int, x value.Value, hint int) {
	k := x.Kind()
	switch {
	case v.vals != nil:
		v.vals = append(v.vals, x)
		return
	case k == value.KindNull:
		if v.kind != value.KindNull {
			v.nulls = putBit(v.nulls, n, true)
			v.pushPayload(n, 0, 0, "", true)
		}
		return
	case v.kind == value.KindNull:
		v.start(n, k, hint)
	case k != v.kind:
		v.mix(n, hint)
		v.vals = append(v.vals, x)
		return
	}
	if n>>6 < len(v.nulls) {
		v.nulls[n>>6] &^= 1 << (n & 63)
	}
	bits, nsec := x.Bits()
	v.pushPayload(n, bits, nsec, x.StringVal(), false)
}

// pushPayload appends cell n's payload to a typed vector: a zero one, and
// no dictionary entry, for a NULL cell.
func (v *Vector) pushPayload(n int, bits uint64, nsec uint32, s string, null bool) {
	switch v.kind {
	case value.KindString:
		c := uint32(0)
		if !null {
			c = v.code(s)
		}
		v.aux = append(v.aux, c)
	case value.KindBool:
		v.words = putBit(v.words, n, bits != 0)
	case value.KindTime:
		v.words = append(v.words, bits)
		v.aux = append(v.aux, nsec)
	default:
		v.words = append(v.words, bits)
	}
}

// start makes the vector one of kind k whose first n cells are NULL.
func (v *Vector) start(n int, k value.Kind, hint int) {
	size := hint
	if size == 0 {
		size = 8
	}
	size = max(size, n+1)
	v.kind = k
	switch k {
	case value.KindString:
		v.aux = make([]uint32, n, size)
		v.dict = make([]string, 0, min(size, 8))
	case value.KindBool:
		v.words = make([]uint64, words64(n), words64(size))
	case value.KindTime:
		v.words = make([]uint64, n, size)
		v.aux = make([]uint32, n, size)
	default:
		v.words = make([]uint64, n, size)
	}
	if n > 0 {
		v.nulls = make([]uint64, words64(n))
		for r := range n {
			v.nulls[r>>6] |= 1 << (r & 63)
		}
	}
}

// mix turns the vector's n cells into a value.Value vector.
func (v *Vector) mix(n, hint int) {
	vals := make([]value.Value, n, max(hint, n+1))
	for r := range vals {
		vals[r] = v.At(r)
	}
	*v = Vector{vals: vals}
}

// dictScan is the dictionary size up to which code scans dict rather than
// keeping an index map: most string columns hold a handful of categories.
const dictScan = 16

// code returns s's dictionary code, adding s to the dictionary if it is new.
func (v *Vector) code(s string) uint32 {
	if v.index == nil && len(v.dict) >= dictScan {
		v.index = make(map[string]uint32, 2*len(v.dict))
		for c, d := range v.dict {
			v.index[d] = uint32(c)
		}
	}
	if v.index != nil {
		if c, ok := v.index[s]; ok {
			return c
		}
	} else if c := slices.Index(v.dict, s); c >= 0 {
		return uint32(c)
	}
	c := uint32(len(v.dict))
	v.dict = append(v.dict, s)
	if v.index != nil {
		v.index[s] = c
	}
	return c
}

// head returns a header over the vector's first n cells.
func (v Vector) head(n int) Vector {
	switch {
	case v.vals != nil:
		v.vals = v.vals[:n]
	case v.kind == value.KindBool:
		v.words = v.words[:words64(n)]
	case v.kind != value.KindNull:
		if v.words != nil {
			v.words = v.words[:n]
		}
		if v.aux != nil {
			v.aux = v.aux[:n]
		}
	}
	if len(v.nulls) > words64(n) {
		v.nulls = v.nulls[:words64(n)]
	}
	v.index = nil
	return v
}

// clone deep-copies the vector's first n cells into storage of its own.
func (v *Vector) clone(n int) Vector {
	h := v.head(n)
	out := Vector{kind: h.kind, dict: slices.Clone(h.dict), vals: slices.Clone(h.vals), aux: slices.Clone(h.aux)}
	if h.kind == value.KindBool {
		out.words = cloneBits(h.words, n)
	} else {
		out.words = slices.Clone(h.words)
	}
	if h.nulls != nil {
		out.nulls = cloneBits(h.nulls, n)
	}
	return out
}

// cloneBits copies the bitmap w of n bits, clearing the bits past n in its
// last word: a head shares that word with cells it does not hold.
func cloneBits(w []uint64, n int) []uint64 {
	out := slices.Clone(w)
	if i := n >> 6; n&63 != 0 && i < len(out) {
		out[i] &= 1<<(n&63) - 1
	}
	return out
}

// take returns a vector of the cells at rows, in that order.
func (v *Vector) take(rows []int32) Vector {
	var b ColumnBuilder
	b.Grow(len(rows))
	for _, r := range rows {
		b.Append(v.At(int(r)))
	}
	return b.v
}

// ColumnBuilder builds one column vector from its cells in row order. The
// zero value is an empty column. FromColumns makes a table of built
// columns; WithColumn puts one into a table in place of, or beside, its
// columns.
type ColumnBuilder struct {
	v    Vector
	n    int
	hint int
}

// Grow sizes the column's first allocation for n cells.
func (b *ColumnBuilder) Grow(n int) { b.hint = n }

// Append adds x as the column's next cell.
func (b *ColumnBuilder) Append(x value.Value) {
	b.v.push(b.n, x, b.hint)
	b.n++
}

// take hands the built vector over and empties the builder.
func (b *ColumnBuilder) take() Vector {
	v := b.v
	v.index = nil
	*b = ColumnBuilder{}
	return v
}

// FromColumns creates a table from built columns, one per schema column in
// schema order, all of one length. It takes the columns' vectors and leaves
// every builder empty.
func FromColumns(schema Schema, cols []ColumnBuilder) *Table {
	if len(cols) != len(schema.Columns) {
		panic(fmt.Sprintf("table %s: %d built columns, schema has %d", schema.Name, len(cols), len(schema.Columns)))
	}
	t := &Table{Schema: schema, cols: make([]Vector, len(cols)), owned: true}
	for c := range cols {
		if c == 0 {
			t.n = cols[c].n
		} else if cols[c].n != t.n {
			panic(fmt.Sprintf("table %s: column %d has %d cells, column 0 has %d", schema.Name, c, cols[c].n, t.n))
		}
		t.cols[c] = cols[c].take()
	}
	return t
}
