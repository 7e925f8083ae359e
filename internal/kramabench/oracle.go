package kramabench

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"pneuma/internal/table"
	"pneuma/internal/transform"
)

// The oracle computes ground-truth answers for benchmark questions directly
// from the generated data, implementing each question's *intended*
// semantics. Where a plausible system reading differs from the intended one
// (e.g. interpolating before vs after filtering), the oracle encodes the
// intended reading — that gap is precisely what separates convergence from
// accuracy in RQ2.

// pred filters rows of a table.
type pred func(t *table.Table, row table.Row) bool

// eq builds an equality predicate on a string column.
func eq(col, val string) pred {
	return func(t *table.Table, row table.Row) bool {
		i := t.Schema.ColumnIndex(col)
		return i >= 0 && strings.EqualFold(row[i].String(), val)
	}
}

// boolTrue builds a predicate on a boolean column.
func boolTrue(col string) pred {
	return func(t *table.Table, row table.Row) bool {
		i := t.Schema.ColumnIndex(col)
		if i < 0 {
			return false
		}
		b, ok := row[i].AsBool()
		return ok && b
	}
}

// intBetween builds a range predicate on an integer column.
func intBetween(col string, from, to int) pred {
	return func(t *table.Table, row table.Row) bool {
		i := t.Schema.ColumnIndex(col)
		if i < 0 {
			return false
		}
		v, ok := row[i].AsInt()
		return ok && v >= int64(from) && v <= int64(to)
	}
}

// dateYearBetween parses a date-string column and bounds its year; rows
// with unparseable dates (e.g. "n.d.") never match.
func dateYearBetween(col string, from, to int) pred {
	return func(t *table.Table, row table.Row) bool {
		i := t.Schema.ColumnIndex(col)
		if i < 0 {
			return false
		}
		tm, ok := row[i].AsTime()
		if !ok {
			return false
		}
		y := tm.Year()
		return y >= from && y <= to
	}
}

// rowsOf returns t's rows in schema order.
func rowsOf(t *table.Table) []table.Row {
	out := make([]table.Row, t.NumRows())
	for r := range out {
		out[r] = t.Row(r)
	}
	return out
}

// rowsWhere returns the rows matching all predicates.
func rowsWhere(t *table.Table, preds ...pred) []table.Row {
	var out []table.Row
	for _, row := range rowsOf(t) {
		ok := true
		for _, p := range preds {
			if !p(t, row) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, row)
		}
	}
	return out
}

// floatsOf extracts the parseable numeric values of a column from rows,
// skipping NULLs and non-numeric text ("unknown").
func floatsOf(t *table.Table, rows []table.Row, col string) []float64 {
	i := t.Schema.ColumnIndex(col)
	if i < 0 {
		return nil
	}
	var out []float64
	for _, row := range rows {
		if row[i].IsNull() {
			continue
		}
		if f, ok := row[i].AsFloat(); ok {
			out = append(out, f)
		}
	}
	return out
}

// aggOf applies an aggregate to values.
func aggOf(vals []float64, agg string) (float64, bool) {
	if len(vals) == 0 {
		return 0, false
	}
	switch agg {
	case "AVG":
		s := 0.0
		for _, v := range vals {
			s += v
		}
		return s / float64(len(vals)), true
	case "SUM":
		s := 0.0
		for _, v := range vals {
			s += v
		}
		return s, true
	case "COUNT":
		return float64(len(vals)), true
	case "MIN":
		m := vals[0]
		for _, v := range vals {
			if v < m {
				m = v
			}
		}
		return m, true
	case "MAX":
		m := vals[0]
		for _, v := range vals {
			if v > m {
				m = v
			}
		}
		return m, true
	case "MEDIAN":
		s := append([]float64{}, vals...)
		sort.Float64s(s)
		n := len(s)
		if n%2 == 1 {
			return s[n/2], true
		}
		return (s[n/2-1] + s[n/2]) / 2, true
	case "STDDEV":
		if len(vals) < 2 {
			return 0, false
		}
		mean, _ := aggOf(vals, "AVG")
		ss := 0.0
		for _, v := range vals {
			d := v - mean
			ss += d * d
		}
		return math.Sqrt(ss / float64(len(vals)-1)), true
	default:
		return 0, false
	}
}

// roundTo rounds to n decimal places (n < 0: no rounding).
func roundTo(f float64, n int) float64 {
	if n < 0 {
		return f
	}
	scale := math.Pow(10, float64(n))
	return math.Round(f*scale) / scale
}

// formatAnswer renders a numeric answer the way answers are compared.
func formatAnswer(f float64, round int) string {
	return strconv.FormatFloat(roundTo(f, round), 'f', -1, 64)
}

// yearlyMeans groups rows by an integer year column and returns the sorted
// years with each year's mean of col.
func yearlyMeans(t *table.Table, rows []table.Row, yearCol, col string) ([]int, []float64) {
	yi := t.Schema.ColumnIndex(yearCol)
	ci := t.Schema.ColumnIndex(col)
	if yi < 0 || ci < 0 {
		return nil, nil
	}
	sums := map[int]float64{}
	counts := map[int]int{}
	for _, row := range rows {
		y, ok := row[yi].AsInt()
		if !ok || row[ci].IsNull() {
			continue
		}
		f, ok := row[ci].AsFloat()
		if !ok {
			continue
		}
		sums[int(y)] += f
		counts[int(y)]++
	}
	years := make([]int, 0, len(sums))
	for y := range sums {
		years = append(years, y)
	}
	sort.Ints(years)
	means := make([]float64, len(years))
	for i, y := range years {
		means[i] = sums[y] / float64(counts[y])
	}
	return years, means
}

// interpolateWithin filters a table, then linearly interpolates the measure
// inside the filtered series ordered by the numeric x column, and returns
// the resulting (including interpolated) values — the intended semantics of
// the interpolation questions.
func interpolateWithin(t *table.Table, preds []pred, xCol, yCol string, yearFrom, yearTo int) ([]float64, error) {
	rows := rowsWhere(t, preds...)
	sub := table.FromRows(t.Schema, rows)
	interp, err := transform.Interpolate{XColumn: xCol, YColumn: yCol}.Apply(sub)
	if err != nil {
		return nil, err
	}
	var keep []pred
	if yearFrom != 0 || yearTo != 0 {
		from, to := yearFrom, yearTo
		if from == 0 {
			from = 1500
		}
		if to == 0 {
			to = 2100
		}
		keep = append(keep, intBetween(xCol, from, to))
	}
	final := rowsWhere(interp, keep...)
	return floatsOf(interp, final, yCol), nil
}

// argmaxGroup returns the group key with the highest mean of col.
func argmaxGroup(t *table.Table, groupCol, col string) (string, float64) {
	gi := t.Schema.ColumnIndex(groupCol)
	ci := t.Schema.ColumnIndex(col)
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, row := range rowsOf(t) {
		if row[ci].IsNull() {
			continue
		}
		f, ok := row[ci].AsFloat()
		if !ok {
			continue
		}
		k := row[gi].String()
		sums[k] += f
		counts[k]++
	}
	bestKey, bestVal := "", math.Inf(-1)
	keys := make([]string, 0, len(sums))
	for k := range sums {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		mean := sums[k] / float64(counts[k])
		if mean > bestVal {
			bestKey, bestVal = k, mean
		}
	}
	return bestKey, bestVal
}

// joinedRegionRows joins a station-keyed measurement table with stations
// and filters by region, returning the measurement rows whose station is in
// the region.
func joinedRegionRows(meas, stations *table.Table, region string) []table.Row {
	sidIdx := stations.Schema.ColumnIndex("station_id")
	regIdx := stations.Schema.ColumnIndex("region")
	inRegion := map[int64]bool{}
	for _, row := range rowsOf(stations) {
		if strings.EqualFold(row[regIdx].String(), region) {
			inRegion[row[sidIdx].IntVal()] = true
		}
	}
	mIdx := meas.Schema.ColumnIndex("station_id")
	var out []table.Row
	for _, row := range rowsOf(meas) {
		if inRegion[row[mIdx].IntVal()] {
			out = append(out, row)
		}
	}
	return out
}

// stationIDByName resolves a station name to its id.
func stationIDByName(stations *table.Table, name string) int64 {
	ni := stations.Schema.ColumnIndex("station_name")
	ii := stations.Schema.ColumnIndex("station_id")
	for _, row := range rowsOf(stations) {
		if strings.EqualFold(row[ni].String(), name) {
			return row[ii].IntVal()
		}
	}
	return -1
}

// mustAgg panics when an oracle aggregate is empty — a bank-construction
// bug, not a runtime condition.
func mustAgg(vals []float64, agg, q string) float64 {
	v, ok := aggOf(vals, agg)
	if !ok {
		panic(fmt.Sprintf("oracle: empty aggregate for question %s", q))
	}
	return v
}
