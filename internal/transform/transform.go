// Package transform is the Materializer's second tool: the stand-in for the
// paper's "Python interpreter equipped with Pandas and NumPy" (§3.4).
//
// Instead of arbitrary Python, the Materializer writes small declarative
// integration plans, and this package holds the ops a plan step can name:
// date normalization (ParseDates), numeric coercion (ToNumber), linear
// interpolation (Interpolate), derived columns (Derive), projection (Keep)
// and the fuzzy join (FuzzyJoin); the exact join runs through the SQL
// engine. Each op validates its inputs and fails with a structured error
// naming the offending column and sample values, feeding the same
// generate → execute → analyze-error → regenerate repair loop the paper
// describes ("the respective tool analyzes these errors and provides
// feedback to Materializer to fix the generated queries or code").
//
// Every op's Apply returns a new table and never writes its input — not a
// cell, not a column, not the schema name. Its output may share the rows it
// left unchanged with that input (rows are immutable once in a table; see
// package table): an op that changes cells starts from Table.Share and
// replaces only the rows it changes, and Keep shares every row through
// column positions (Table.Project).
package transform

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"pneuma/internal/sqlengine"
	"pneuma/internal/table"
	"pneuma/internal/textutil"
	"pneuma/internal/value"
)

// Error is a structured transform failure.
type Error struct {
	// Op describes the failing operation.
	Op string
	// Msg explains the failure.
	Msg string
	// Samples holds example offending values, when applicable.
	Samples []string
}

func (e *Error) Error() string {
	s := fmt.Sprintf("transform %s: %s", e.Op, e.Msg)
	if len(e.Samples) > 0 {
		s += fmt.Sprintf(" (examples: %s)", strings.Join(e.Samples, ", "))
	}
	return s
}

// ---------------------------------------------------------------------------
// ParseDates
// ---------------------------------------------------------------------------

// ParseDates normalizes a column to timestamps, accepting the shared layout
// list (ISO, US, "Month Day, Year", ...). This is the op the paper's §3.4
// example needs: a query expects "yyyy-mm-dd" while the column holds
// "Month Day, Year".
type ParseDates struct {
	// Column is the column to normalize.
	Column string
	// Lenient turns unparseable values into NULL instead of failing.
	Lenient bool
}

// Apply returns t with the column parsed to timestamps.
func (op ParseDates) Apply(t *table.Table) (*table.Table, error) {
	ci := t.Schema.ColumnIndex(op.Column)
	if ci < 0 {
		return nil, colMissing("PARSE_DATES", op.Column, t)
	}
	out := t.Share()
	out.Schema.Columns[ci].Type = value.KindTime
	var bad []string
	p := t.Pos(ci)
	for r, row := range t.Stored() {
		v := row[p]
		if v.IsNull() {
			continue
		}
		tm, ok := v.AsTime()
		if !ok {
			if op.Lenient {
				out.SetCell(r, ci, value.Null())
				continue
			}
			if len(bad) < 3 {
				bad = append(bad, fmt.Sprintf("%q", v.String()))
			}
			continue
		}
		out.SetCell(r, ci, value.Time(tm))
	}
	if len(bad) > 0 {
		return nil, &Error{
			Op:      "PARSE_DATES",
			Msg:     fmt.Sprintf("column %q contains values that do not parse as dates", op.Column),
			Samples: bad,
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// ToNumber
// ---------------------------------------------------------------------------

// ToNumber coerces a column to float64, stripping thousands separators,
// currency symbols and unit suffixes ("1,200.50 USD" → 1200.5).
type ToNumber struct {
	Column  string
	Lenient bool
}

// Apply returns t with the column coerced to float64.
func (op ToNumber) Apply(t *table.Table) (*table.Table, error) {
	ci := t.Schema.ColumnIndex(op.Column)
	if ci < 0 {
		return nil, colMissing("TO_NUMBER", op.Column, t)
	}
	out := t.Share()
	out.Schema.Columns[ci].Type = value.KindFloat
	var bad []string
	p := t.Pos(ci)
	for r, row := range t.Stored() {
		v := row[p]
		if v.IsNull() {
			continue
		}
		f, ok := parseLooseNumber(v.String())
		if !ok {
			if op.Lenient {
				out.SetCell(r, ci, value.Null())
				continue
			}
			if len(bad) < 3 {
				bad = append(bad, fmt.Sprintf("%q", v.String()))
			}
			continue
		}
		out.SetCell(r, ci, value.Float(f))
	}
	if len(bad) > 0 {
		return nil, &Error{
			Op:      "TO_NUMBER",
			Msg:     fmt.Sprintf("column %q contains non-numeric values", op.Column),
			Samples: bad,
		}
	}
	return out, nil
}

// parseLooseNumber parses numbers with separators, symbols and unit tails.
func parseLooseNumber(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	s = strings.ReplaceAll(s, ",", "")
	s = strings.TrimPrefix(s, "$")
	s = strings.TrimPrefix(s, "€")
	percent := strings.HasSuffix(s, "%")
	s = strings.TrimSuffix(s, "%")
	// Strip a trailing unit word ("12.5 ppm", "300 USD").
	if i := strings.IndexByte(s, ' '); i > 0 {
		head := s[:i]
		if v := value.Infer(head); v.Kind().Numeric() {
			s = head
		}
	}
	v := value.Infer(s)
	f, ok := v.AsFloat()
	if !ok {
		return 0, false
	}
	if percent {
		f /= 100
	}
	return f, true
}

// ---------------------------------------------------------------------------
// Derive
// ---------------------------------------------------------------------------

// Derive adds (or replaces) a column computed from a SQL expression over
// each row, e.g. Expr = "price * (1 + new_tariff - prev_tariff)".
type Derive struct {
	Name string
	Expr string
}

// Apply returns t with the derived column added or replaced.
func (op Derive) Apply(t *table.Table) (*table.Table, error) {
	expr, err := sqlengine.ParseExpr(op.Expr)
	if err != nil {
		return nil, &Error{Op: "DERIVE", Msg: fmt.Sprintf("bad expression %q: %v", op.Expr, err)}
	}
	// A fresh column widens every row, so the output is new rows in schema
	// order; a replaced column replaces cells in shared rows.
	var out *table.Table
	var wide []table.Row
	ci := t.Schema.ColumnIndex(op.Name)
	fresh := ci < 0
	if fresh {
		ci = t.NumCols()
		wide = make([]table.Row, t.NumRows())
	} else {
		out = t.Share()
	}
	// Bind to the original table so a replaced column's old values stay
	// visible to the expression.
	eval := sqlengine.BindRow(expr, t)
	kind := value.KindNull
	for r, row := range t.Stored() {
		v, err := eval(row)
		if err != nil {
			return nil, &Error{Op: "DERIVE", Msg: fmt.Sprintf("row %d: %v", r, err)}
		}
		if fresh {
			// A new row, not append(row, v): row's backing array may have
			// room, and every table sharing the row would see the write.
			wide[r] = append(t.AppendRow(make(table.Row, 0, ci+1), r), v)
		} else {
			out.SetCell(r, ci, v)
		}
		kind = value.UnifyKinds(kind, v.Kind())
	}
	if kind == value.KindNull {
		kind = value.KindString
	}
	if fresh {
		schema := t.Schema
		schema.Columns = append(slices.Clip(t.Schema.Columns), table.Column{Name: op.Name})
		out = table.FromRows(schema, wide)
	}
	out.Schema.Columns[ci].Type = kind
	return out, nil
}

// ---------------------------------------------------------------------------
// Keep
// ---------------------------------------------------------------------------

// Keep projects the table down to the named columns, in the given order.
type Keep struct{ Columns []string }

// Apply returns t projected onto the named columns: a header over t's rows
// (Table.Project), which copies no cell and carries t's profile when it is
// published.
func (op Keep) Apply(t *table.Table) (*table.Table, error) {
	idxs := make([]int, 0, len(op.Columns))
	for _, c := range op.Columns {
		ci := t.Schema.ColumnIndex(c)
		if ci < 0 {
			return nil, colMissing("KEEP", c, t)
		}
		idxs = append(idxs, ci)
	}
	return t.Project(idxs), nil
}

// ---------------------------------------------------------------------------
// Interpolate
// ---------------------------------------------------------------------------

// Interpolate fills NULLs in YColumn by linear interpolation against
// XColumn (sorted ascending). Values outside the observed X range stay
// NULL. This is the op behind the benchmark's "assume Potassium is linearly
// interpolated between samples" questions.
type Interpolate struct {
	XColumn string
	YColumn string
}

// Apply returns t with YColumn's interior NULLs interpolated.
func (op Interpolate) Apply(t *table.Table) (*table.Table, error) {
	xi := t.Schema.ColumnIndex(op.XColumn)
	if xi < 0 {
		return nil, colMissing("INTERPOLATE", op.XColumn, t)
	}
	yi := t.Schema.ColumnIndex(op.YColumn)
	if yi < 0 {
		return nil, colMissing("INTERPOLATE", op.YColumn, t)
	}
	out := t.Share()
	rows, px, py := t.Stored(), t.Pos(xi), t.Pos(yi)
	// Sort row indices by X.
	type pt struct {
		row int
		x   float64
	}
	pts := make([]pt, 0, len(rows))
	for r, row := range rows {
		x, ok := row[px].AsFloat()
		if !ok {
			return nil, &Error{Op: "INTERPOLATE", Msg: fmt.Sprintf(
				"x column %q has non-numeric value %q (parse it first)", op.XColumn, row[px].String())}
		}
		pts = append(pts, pt{r, x})
	}
	// Stable sort: ties on X keep row order, so interpolation is
	// deterministic for repeated X values. The comparator is built from <
	// alone, so a NaN X ties with every X as under a less function;
	// cmp.Compare would sort NaN first and move those rows.
	slices.SortStableFunc(pts, func(a, b pt) int {
		if a.x < b.x {
			return -1
		}
		if b.x < a.x {
			return 1
		}
		return 0
	})

	// Known (x, y) anchor points in x order.
	type anchor struct{ x, y float64 }
	var anchors []anchor
	for _, p := range pts {
		v := rows[p.row][py]
		if v.IsNull() {
			continue
		}
		y, ok := v.AsFloat()
		if !ok {
			return nil, &Error{Op: "INTERPOLATE", Msg: fmt.Sprintf(
				"y column %q has non-numeric value %q", op.YColumn, v.String())}
		}
		anchors = append(anchors, anchor{p.x, y})
	}
	if len(anchors) < 2 {
		return nil, &Error{Op: "INTERPOLATE", Msg: fmt.Sprintf(
			"column %q needs at least 2 non-null values to interpolate, has %d", op.YColumn, len(anchors))}
	}
	for _, p := range pts {
		if !rows[p.row][py].IsNull() {
			continue
		}
		// Find the bracketing anchors.
		lo := sort.Search(len(anchors), func(i int) bool { return anchors[i].x >= p.x })
		if lo == 0 || lo == len(anchors) {
			continue // outside range: stays NULL
		}
		a, b := anchors[lo-1], anchors[lo]
		if b.x == a.x {
			out.SetCell(p.row, yi, value.Float(a.y))
			continue
		}
		frac := (p.x - a.x) / (b.x - a.x)
		out.SetCell(p.row, yi, value.Float(a.y+frac*(b.y-a.y)))
	}
	out.Schema.Columns[yi].Type = value.KindFloat
	return out, nil
}

// InterpolateAt computes the linearly interpolated Y value at a single X
// coordinate from (x, y) pairs — the scalar version used for "value at the
// first/last recorded time" questions. Xs need not be sorted. Exact X
// matches return the recorded value.
func InterpolateAt(xs, ys []float64, at float64) (float64, error) {
	if len(xs) != len(ys) || len(xs) == 0 {
		return 0, &Error{Op: "INTERPOLATE_AT", Msg: "xs and ys must be equal-length and non-empty"}
	}
	type pt struct{ x, y float64 }
	pts := make([]pt, len(xs))
	for i := range xs {
		pts[i] = pt{xs[i], ys[i]}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].x < pts[j].x })
	if at <= pts[0].x {
		return pts[0].y, nil
	}
	if at >= pts[len(pts)-1].x {
		return pts[len(pts)-1].y, nil
	}
	for i := 1; i < len(pts); i++ {
		if at <= pts[i].x {
			a, b := pts[i-1], pts[i]
			if b.x == a.x {
				return a.y, nil
			}
			frac := (at - a.x) / (b.x - a.x)
			return a.y + frac*(b.y-a.y), nil
		}
	}
	return pts[len(pts)-1].y, nil
}

// ---------------------------------------------------------------------------
// FuzzyJoin
// ---------------------------------------------------------------------------

// FuzzyJoin joins the working table with Right on approximate string
// equality of the key columns — the "semantic or fuzzy join" the paper's
// §3.5 names as an operation static pipelines struggle to absorb. Each left
// row matches the best-scoring right row whose similarity is at least
// fuzzyThreshold; a left row without such a match is dropped.
type FuzzyJoin struct {
	Right    *table.Table
	LeftKey  string
	RightKey string
}

// fuzzyThreshold is the minimum key similarity, in [0,1], of a fuzzy match.
const fuzzyThreshold = 0.75

// Apply returns the matched rows of t, each widened by its best right row.
func (op FuzzyJoin) Apply(t *table.Table) (*table.Table, error) {
	if op.Right == nil {
		return nil, &Error{Op: "FUZZY_JOIN", Msg: "right table is nil"}
	}
	li := t.Schema.ColumnIndex(op.LeftKey)
	if li < 0 {
		return nil, colMissing("FUZZY_JOIN", op.LeftKey, t)
	}
	ri := op.Right.Schema.ColumnIndex(op.RightKey)
	if ri < 0 {
		return nil, colMissing("FUZZY_JOIN", op.RightKey, op.Right)
	}
	schema := table.Schema{Name: t.Schema.Name + "_joined"}
	schema.Columns = append(schema.Columns, t.Schema.Columns...)
	for _, c := range op.Right.Schema.Columns {
		name := c.Name
		if schema.ColumnIndex(name) >= 0 {
			name = op.Right.Schema.Name + "_" + name
		}
		cc := c
		cc.Name = name
		schema.Columns = append(schema.Columns, cc)
	}

	width := len(schema.Columns)
	rkeys := make([]string, op.Right.NumRows())
	rp := op.Right.Pos(ri)
	for rr, rrow := range op.Right.Stored() {
		rkeys[rr] = normalizeKey(rrow[rp].String())
	}
	var rows []table.Row
	lp := t.Pos(li)
	for lr, lrow := range t.Stored() {
		lkey := normalizeKey(lrow[lp].String())
		bestScore := -1.0
		bestRow := -1
		for rr, rkey := range rkeys {
			score := keySimilarity(lkey, rkey)
			if score > bestScore {
				bestScore, bestRow = score, rr
			}
		}
		if bestRow >= 0 && bestScore >= fuzzyThreshold {
			nr := t.AppendRow(make(table.Row, 0, width), lr)
			rows = append(rows, op.Right.AppendRow(nr, bestRow))
		}
	}
	return table.FromRows(schema, rows), nil
}

func normalizeKey(s string) string {
	return strings.Join(textutil.Tokenize(s), " ")
}

// keySimilarity blends edit-distance and token-overlap similarity so both
// "ACME GmbH" / "Acme" and "supplier-12" / "supplier 12" match.
func keySimilarity(a, b string) float64 {
	if a == "" || b == "" {
		return 0
	}
	lev := textutil.Similarity(a, b)
	jac := textutil.Jaccard(strings.Fields(a), strings.Fields(b))
	if lev > jac {
		return lev
	}
	return jac
}

// colMissing builds the shared column-not-found error with candidates,
// including near-miss suggestions — the hook the repair loop uses to fix
// misspelled column names.
func colMissing(op, col string, t *table.Table) error {
	names := t.Schema.ColumnNames()
	best, bestScore := "", 0.0
	for _, n := range names {
		if s := textutil.Similarity(strings.ToLower(col), strings.ToLower(n)); s > bestScore {
			best, bestScore = n, s
		}
	}
	msg := fmt.Sprintf("column %q not found in %s; available: %s", col, t.Schema.Name, strings.Join(names, ", "))
	if bestScore >= 0.5 {
		msg += fmt.Sprintf(" (did you mean %q?)", best)
	}
	return &Error{Op: op, Msg: msg}
}
