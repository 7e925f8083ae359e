package table

import (
	"math"
	"slices"
	"strings"

	"pneuma/internal/value"
)

// stats computes the ColumnStats of the vector's first n cells: Min and Max
// by value.Compare, the first of equal cells kept, and the first maxSamples
// distinct renderings in row order.
func (v *Vector) stats(n int) ColumnStats {
	switch {
	case v.vals != nil || v.kind == value.KindTime:
		return v.cellStats(n)
	case v.kind == value.KindString:
		return v.stringStats(n)
	case v.kind != value.KindNull:
		return v.numberStats(n)
	}
	return ColumnStats{}
}

// numberStats profiles an int, float or bool vector. Compare orders ints
// and floats by their float64 views and bools false first, so one float key
// orders all three, and two cells of one of these kinds render alike
// exactly when their payloads are equal, so samples are probed by payload.
func (v *Vector) numberStats(n int) ColumnStats {
	var cs ColumnStats
	lo, hi := -1, -1
	var loKey, hiKey float64
	var seen [maxSamples]uint64
	for r := range n {
		if v.nulls != nil && bit(v.nulls, r) {
			continue
		}
		var bits uint64
		var key float64
		switch v.kind {
		case value.KindInt:
			bits = v.words[r]
			key = float64(int64(bits))
		case value.KindFloat:
			bits = v.words[r]
			key = math.Float64frombits(bits)
		case value.KindBool:
			if bit(v.words, r) {
				bits, key = 1, 1
			}
		}
		switch {
		case lo < 0:
			lo, hi, loKey, hiKey = r, r, key, key
		case key < loKey:
			lo, loKey = r, key
		case key > hiKey:
			hi, hiKey = r, key
		}
		k := len(cs.SampleValues)
		if k < maxSamples && !slices.Contains(seen[:k], bits) {
			seen[k] = bits
			cs.SampleValues = append(cs.SampleValues, v.At(r).String())
		}
	}
	if lo >= 0 {
		cs.Min, cs.Max = v.At(lo), v.At(hi)
	}
	return cs
}

// stringStats profiles a dictionary-coded vector through its distinct
// strings in first-occurrence order: they are the samples, as distinct
// strings render distinctly. Compare orders two strings numerically when
// both parse as numbers and lexically otherwise, so each distinct string's
// numeric view is taken once. When the distinct strings all parse (none to
// NaN) or none does, that order is a total preorder, and comparing each
// distinct string once in first-occurrence order keeps the first of equal
// cells just as comparing every cell does. A mix of the two can order three
// strings in a cycle ("2" < "10" < "1a" < "2"), so then the vector is
// profiled cell by cell (cellStats).
func (v *Vector) stringStats(n int) ColumnStats {
	var cs ColumnStats
	seen := make([]uint64, words64(len(v.dict)))
	lo, hi := -1, -1 // codes
	var lof, hif float64
	var lon, hin bool
	distinct, numeric, nan := 0, 0, false
	for r := range n {
		c := int(v.aux[r])
		if v.nulls != nil && bit(v.nulls, r) || bit(seen, c) {
			continue
		}
		seen[c>>6] |= 1 << (c & 63)
		s := v.dict[c]
		if len(cs.SampleValues) < maxSamples {
			cs.SampleValues = append(cs.SampleValues, s)
		}
		f, num := value.String(s).AsFloat()
		distinct++
		if num {
			numeric++
			nan = nan || math.IsNaN(f)
		}
		if lo < 0 {
			lo, hi, lof, hif, lon, hin = c, c, f, f, num, num
			continue
		}
		if compareText(s, f, num, v.dict[lo], lof, lon) < 0 {
			lo, lof, lon = c, f, num
		}
		if compareText(s, f, num, v.dict[hi], hif, hin) > 0 {
			hi, hif, hin = c, f, num
		}
	}
	if lo < 0 {
		return cs
	}
	if numeric > 0 && (numeric < distinct || nan) {
		return v.cellStats(n)
	}
	cs.Min, cs.Max = value.String(v.dict[lo]), value.String(v.dict[hi])
	return cs
}

// compareText is value.Compare of two strings a and b given their numeric
// views (af, an) and (bf, bn): by number when both parse, else by text.
func compareText(a string, af float64, an bool, b string, bf float64, bn bool) int {
	if !an || !bn {
		return strings.Compare(a, b)
	}
	switch {
	case af < bf:
		return -1
	case af > bf:
		return 1
	}
	return 0
}

// cellStats profiles the vector cell by cell through At, as the
// definition reads: a column of mixed kinds, a time column, whose rendering
// drops the sub-seconds and a midnight clock, and a string column that
// Compare does not order totally. Two cells are the same sample when they
// render the same. For two cells of one kind among int, float, bool and
// string, rendering is injective, so the probe compares them with == (a
// Value's kind and payload bits) and renders nothing. Any other pair — a
// time, or two kinds that can render alike (Int(5) and Float(5), Bool(true)
// and "true") — compares the cell's rendering, made once into a stack
// buffer, with the stored sample.
func (v *Vector) cellStats(n int) ColumnStats {
	var cs ColumnStats
	var seenAt [maxSamples]int32
	var buf [64]byte
	for r := range n {
		x := v.At(r)
		if x.IsNull() {
			continue
		}
		if cs.Min.IsNull() {
			cs.Min, cs.Max = x, x
		} else {
			if value.Compare(x, cs.Min) < 0 {
				cs.Min = x
			}
			if value.Compare(x, cs.Max) > 0 {
				cs.Max = x
			}
		}
		k := len(cs.SampleValues)
		if k == maxSamples {
			continue
		}
		payload := x.Kind() != value.KindTime
		var text []byte
		seen := false
		for j := 0; j < k && !seen; j++ {
			if s := v.At(int(seenAt[j])); payload && s.Kind() == x.Kind() {
				seen = s == x
				continue
			}
			if text == nil {
				text = x.AppendTo(buf[:0])
			}
			seen = string(text) == cs.SampleValues[j]
		}
		if !seen {
			seenAt[k] = int32(r)
			cs.SampleValues = append(cs.SampleValues, x.String())
		}
	}
	return cs
}
