package sqlengine

import (
	"fmt"
	"math"
	"sort"

	"pneuma/internal/value"
)

// aggregateNames is the set of supported aggregate functions. FIRST/LAST
// take the first/last non-null value in input order, which is meaningful
// after an ordered subquery — the temporal "first and last recorded"
// benchmark questions rely on them.
var aggregateNames = map[string]struct{}{
	"COUNT": {}, "SUM": {}, "AVG": {}, "MIN": {}, "MAX": {},
	"MEDIAN": {}, "STDDEV": {}, "VARIANCE": {}, "FIRST": {}, "LAST": {},
}

// isAggregate reports whether name (upper-case) is an aggregate function.
func isAggregate(name string) bool {
	_, ok := aggregateNames[name]
	return ok
}

// accumulator consumes values for one group and produces the aggregate.
type accumulator interface {
	add(v value.Value) error
	result() value.Value
}

// newAccumulator builds an accumulator for the call. The distinct flag
// wraps the base accumulator with deduplication.
func newAccumulator(fc *FuncCall) (accumulator, error) {
	var base accumulator
	switch fc.Name {
	case "COUNT":
		base = &countAcc{star: fc.Star}
	case "SUM":
		base = &sumAcc{}
	case "AVG":
		base = &avgAcc{}
	case "MIN":
		base = &minMaxAcc{dir: -1}
	case "MAX":
		base = &minMaxAcc{dir: +1}
	case "MEDIAN":
		base = &medianAcc{}
	case "STDDEV":
		base = &varAcc{stddev: true}
	case "VARIANCE":
		base = &varAcc{}
	case "FIRST":
		base = &firstLastAcc{first: true}
	case "LAST":
		base = &firstLastAcc{}
	default:
		return nil, fmt.Errorf("unknown aggregate %s", fc.Name)
	}
	if fc.Distinct {
		return &distinctAcc{inner: base, seen: make(map[string]struct{})}, nil
	}
	return base, nil
}

type countAcc struct {
	star bool
	n    int64
}

func (a *countAcc) add(v value.Value) error {
	if a.star || !v.IsNull() {
		a.n++
	}
	return nil
}
func (a *countAcc) result() value.Value { return value.Int(a.n) }

type sumAcc struct {
	sum     float64
	sumInt  int64
	allInt  bool
	started bool
}

func (a *sumAcc) add(v value.Value) error {
	if v.IsNull() {
		return nil
	}
	f, ok := v.AsFloat()
	if !ok {
		return fmt.Errorf("SUM: value %q is not numeric", v.String())
	}
	if !a.started {
		a.started = true
		a.allInt = true
	}
	if v.Kind() != value.KindInt {
		a.allInt = false
	}
	a.sum += f
	a.sumInt += v.IntVal()
	return nil
}

func (a *sumAcc) result() value.Value {
	if !a.started {
		return value.Null()
	}
	if a.allInt {
		return value.Int(a.sumInt)
	}
	return value.Float(a.sum)
}

type avgAcc struct {
	sum float64
	n   int64
}

func (a *avgAcc) add(v value.Value) error {
	if v.IsNull() {
		return nil
	}
	f, ok := v.AsFloat()
	if !ok {
		return fmt.Errorf("AVG: value %q is not numeric", v.String())
	}
	a.sum += f
	a.n++
	return nil
}

func (a *avgAcc) result() value.Value {
	if a.n == 0 {
		return value.Null()
	}
	return value.Float(a.sum / float64(a.n))
}

type minMaxAcc struct {
	dir  int
	best value.Value
}

func (a *minMaxAcc) add(v value.Value) error {
	if v.IsNull() {
		return nil
	}
	if a.best.IsNull() || value.Compare(v, a.best)*a.dir > 0 {
		a.best = v
	}
	return nil
}
func (a *minMaxAcc) result() value.Value { return a.best }

type medianAcc struct {
	vals []float64
}

func (a *medianAcc) add(v value.Value) error {
	if v.IsNull() {
		return nil
	}
	f, ok := v.AsFloat()
	if !ok {
		return fmt.Errorf("MEDIAN: value %q is not numeric", v.String())
	}
	a.vals = append(a.vals, f)
	return nil
}

func (a *medianAcc) result() value.Value {
	n := len(a.vals)
	if n == 0 {
		return value.Null()
	}
	sort.Float64s(a.vals)
	if n%2 == 1 {
		return value.Float(a.vals[n/2])
	}
	return value.Float((a.vals[n/2-1] + a.vals[n/2]) / 2)
}

// varAcc implements Welford's online algorithm for sample variance.
type varAcc struct {
	stddev bool
	n      int64
	mean   float64
	m2     float64
}

func (a *varAcc) add(v value.Value) error {
	if v.IsNull() {
		return nil
	}
	f, ok := v.AsFloat()
	if !ok {
		return fmt.Errorf("STDDEV/VARIANCE: value %q is not numeric", v.String())
	}
	a.n++
	d := f - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (f - a.mean)
	return nil
}

func (a *varAcc) result() value.Value {
	if a.n < 2 {
		return value.Null()
	}
	variance := a.m2 / float64(a.n-1)
	if a.stddev {
		return value.Float(math.Sqrt(variance))
	}
	return value.Float(variance)
}

type firstLastAcc struct {
	first bool
	val   value.Value
	set   bool
}

func (a *firstLastAcc) add(v value.Value) error {
	if v.IsNull() {
		return nil
	}
	if a.first {
		if !a.set {
			a.val = v
			a.set = true
		}
		return nil
	}
	a.val = v
	a.set = true
	return nil
}

func (a *firstLastAcc) result() value.Value {
	if !a.set {
		return value.Null()
	}
	return a.val
}

// distinctAcc deduplicates values (by rendered string, kind-tagged) before
// feeding the inner accumulator.
type distinctAcc struct {
	inner accumulator
	seen  map[string]struct{}
}

func (a *distinctAcc) add(v value.Value) error {
	if v.IsNull() {
		return nil
	}
	key := v.Kind().String() + "\x00" + v.String()
	if _, dup := a.seen[key]; dup {
		return nil
	}
	a.seen[key] = struct{}{}
	return a.inner.add(v)
}

func (a *distinctAcc) result() value.Value { return a.inner.result() }

// appendGroupKey appends to dst the composite key that GROUP BY and
// DISTINCT bucket rows by: each value's kind and rendering.
func appendGroupKey(dst []byte, vals []value.Value) []byte {
	for _, v := range vals {
		dst = append(dst, v.Kind().String()...)
		dst = append(dst, ':')
		dst = v.AppendTo(dst)
		dst = append(dst, '\x1f')
	}
	return dst
}
