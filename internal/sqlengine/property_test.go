package sqlengine

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"pneuma/internal/table"
	"pneuma/internal/value"
)

// intTable builds a single-column bigint table from xs.
func intTable(name string, xs []int32) *table.Table {
	t := table.New(table.Schema{Name: name, Columns: []table.Column{{Name: "v", Type: value.KindInt}}})
	for _, x := range xs {
		t.MustAppend(table.Row{value.Int(int64(x))})
	}
	return t
}

// TestPropertySumMatchesDirectComputation: SUM over any int column equals
// the direct Go sum.
func TestPropertySumMatchesDirectComputation(t *testing.T) {
	f := func(xs []int32) bool {
		e := NewEngine()
		e.Register(intTable("t", xs))
		out, err := e.Query("SELECT SUM(v) AS s, COUNT(*) AS n FROM t")
		if err != nil {
			return false
		}
		var want int64
		for _, x := range xs {
			want += int64(x)
		}
		if len(xs) == 0 {
			return out.At(0, 0).IsNull() && out.At(0, 1).IntVal() == 0
		}
		return out.At(0, 0).IntVal() == want && out.At(0, 1).IntVal() == int64(len(xs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyWherePartitions: a predicate and its negation partition the
// table (modulo NULL, absent here).
func TestPropertyWherePartitions(t *testing.T) {
	f := func(xs []int32, pivot int32) bool {
		e := NewEngine()
		e.Register(intTable("t", xs))
		lt, err := e.Query(fmt.Sprintf("SELECT COUNT(*) AS n FROM t WHERE v < %d", pivot))
		if err != nil {
			return false
		}
		ge, err := e.Query(fmt.Sprintf("SELECT COUNT(*) AS n FROM t WHERE NOT (v < %d)", pivot))
		if err != nil {
			return false
		}
		return lt.At(0, 0).IntVal()+ge.At(0, 0).IntVal() == int64(len(xs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyOrderBySorts: ORDER BY v ASC yields a non-decreasing column.
func TestPropertyOrderBySorts(t *testing.T) {
	f := func(xs []int32) bool {
		e := NewEngine()
		e.Register(intTable("t", xs))
		out, err := e.Query("SELECT v FROM t ORDER BY v")
		if err != nil || out.NumRows() != len(xs) {
			return false
		}
		for i := 1; i < out.NumRows(); i++ {
			if out.At(i, 0).IntVal() < out.At(i-1, 0).IntVal() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyLimitOffset: LIMIT/OFFSET never exceed bounds and compose.
func TestPropertyLimitOffset(t *testing.T) {
	f := func(xs []int32, rawLimit, rawOffset uint8) bool {
		limit, offset := int(rawLimit%16), int(rawOffset%16)
		e := NewEngine()
		e.Register(intTable("t", xs))
		out, err := e.Query(fmt.Sprintf("SELECT v FROM t ORDER BY v LIMIT %d OFFSET %d", limit, offset))
		if err != nil {
			return false
		}
		want := len(xs) - offset
		if want < 0 {
			want = 0
		}
		if want > limit {
			want = limit
		}
		return out.NumRows() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyAvgBetweenMinMax: AVG lies within [MIN, MAX].
func TestPropertyAvgBetweenMinMax(t *testing.T) {
	f := func(xs []int32) bool {
		if len(xs) == 0 {
			return true
		}
		e := NewEngine()
		e.Register(intTable("t", xs))
		out, err := e.Query("SELECT AVG(v) AS a, MIN(v) AS lo, MAX(v) AS hi FROM t")
		if err != nil {
			return false
		}
		a := out.At(0, 0).FloatVal()
		lo := out.At(0, 1).FloatVal()
		hi := out.At(0, 2).FloatVal()
		return a >= lo-1e-9 && a <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDistinctIdempotent: DISTINCT twice equals DISTINCT once, and
// group count equals distinct count.
func TestPropertyDistinctIdempotent(t *testing.T) {
	f := func(xs []int32) bool {
		e := NewEngine()
		e.Register(intTable("t", xs))
		d1, err := e.Query("SELECT DISTINCT v FROM t")
		if err != nil {
			return false
		}
		d2, err := e.Query("SELECT DISTINCT v FROM (SELECT DISTINCT v FROM t) AS s")
		if err != nil {
			return false
		}
		cnt, err := e.Query("SELECT COUNT(DISTINCT v) AS n FROM t")
		if err != nil {
			return false
		}
		return d1.NumRows() == d2.NumRows() && int64(d1.NumRows()) == cnt.At(0, 0).IntVal()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyUnionAllCounts: UNION ALL row count is the sum of arm counts.
func TestPropertyUnionAllCounts(t *testing.T) {
	f := func(xs, ys []int32) bool {
		e := NewEngine()
		e.Register(intTable("a", xs))
		e.Register(intTable("b", ys))
		out, err := e.Query("SELECT v FROM a UNION ALL SELECT v FROM b")
		if err != nil {
			return false
		}
		return out.NumRows() == len(xs)+len(ys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyStddevNonNegative over float inputs.
func TestPropertyStddevNonNegative(t *testing.T) {
	f := func(xs []float32) bool {
		tb := table.New(table.Schema{Name: "t", Columns: []table.Column{{Name: "v", Type: value.KindFloat}}})
		for _, x := range xs {
			if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
				continue
			}
			tb.MustAppend(table.Row{value.Float(float64(x))})
		}
		e := NewEngine()
		e.Register(tb)
		out, err := e.Query("SELECT STDDEV(v) AS s FROM t")
		if err != nil {
			return false
		}
		v := out.At(0, 0)
		return v.IsNull() || v.FloatVal() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
