// Package transform is the Materializer's second tool: the stand-in for the
// paper's "Python interpreter equipped with Pandas and NumPy" (§3.4).
//
// Instead of arbitrary Python, the Materializer writes small declarative
// programs — sequences of typed operations (date normalization, numeric
// coercion, derived columns, interpolation, fuzzy joins, ...). Each
// operation validates its inputs and fails with a structured error naming
// the offending column and sample values, feeding the same
// generate → execute → analyze-error → regenerate repair loop the paper
// describes ("the respective tool analyzes these errors and provides
// feedback to Materializer to fix the generated queries or code").
package transform

import (
	"fmt"
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

// Op is one transformation step.
type Op interface {
	// Apply transforms the table, returning a new table. An op never writes
	// its input — not a cell, not a column, not the schema name — and its
	// output may share the rows it left unchanged with that input (rows are
	// immutable once in a table; see package table).
	Apply(t *table.Table) (*table.Table, error)
	// Describe renders the op as pseudo-code for logging and token
	// accounting — the "code" the Materializer writes.
	Describe() string
}

// Program is an ordered sequence of operations.
type Program struct {
	Ops []Op
}

// Apply runs the program.
func (p Program) Apply(t *table.Table) (*table.Table, error) {
	cur := t
	for _, op := range p.Ops {
		next, err := op.Apply(cur)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

// Describe renders the whole program.
func (p Program) Describe() string {
	lines := make([]string, len(p.Ops))
	for i, op := range p.Ops {
		lines[i] = op.Describe()
	}
	return strings.Join(lines, "\n")
}

// share starts an op's output: a table with its own row index and its own
// column slice over t's rows. The op may edit columns and replace rows
// (setCell), and pays only for the rows it replaces.
func share(t *table.Table) *table.Table {
	out := table.New(t.Schema)
	out.Schema.Columns = append([]table.Column(nil), t.Schema.Columns...)
	out.Rows = append([]table.Row(nil), t.Rows...)
	return out
}

// setCell replaces row r of out with a copy that holds v in column ci. out
// came from share, so the row it held until now may belong to other tables.
func setCell(out *table.Table, r, ci int, v value.Value) {
	row := out.Rows[r].Clone()
	row[ci] = v
	out.Rows[r] = row
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

// Apply implements Op.
func (op ParseDates) Apply(t *table.Table) (*table.Table, error) {
	ci := t.Schema.ColumnIndex(op.Column)
	if ci < 0 {
		return nil, colMissing("PARSE_DATES", op.Column, t)
	}
	out := share(t)
	out.Schema.Columns[ci].Type = value.KindTime
	var bad []string
	for r, row := range t.Rows {
		v := row[ci]
		if v.IsNull() {
			continue
		}
		tm, ok := v.AsTime()
		if !ok {
			if op.Lenient {
				setCell(out, r, ci, value.Null())
				continue
			}
			if len(bad) < 3 {
				bad = append(bad, fmt.Sprintf("%q", v.String()))
			}
			continue
		}
		setCell(out, r, ci, value.Time(tm))
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

// Describe implements Op.
func (op ParseDates) Describe() string {
	return fmt.Sprintf("df[%q] = parse_dates(df[%q], lenient=%v)", op.Column, op.Column, op.Lenient)
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

// Apply implements Op.
func (op ToNumber) Apply(t *table.Table) (*table.Table, error) {
	ci := t.Schema.ColumnIndex(op.Column)
	if ci < 0 {
		return nil, colMissing("TO_NUMBER", op.Column, t)
	}
	out := share(t)
	out.Schema.Columns[ci].Type = value.KindFloat
	var bad []string
	for r, row := range t.Rows {
		v := row[ci]
		if v.IsNull() {
			continue
		}
		f, ok := parseLooseNumber(v.String())
		if !ok {
			if op.Lenient {
				setCell(out, r, ci, value.Null())
				continue
			}
			if len(bad) < 3 {
				bad = append(bad, fmt.Sprintf("%q", v.String()))
			}
			continue
		}
		setCell(out, r, ci, value.Float(f))
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

// Describe implements Op.
func (op ToNumber) Describe() string {
	return fmt.Sprintf("df[%q] = to_number(df[%q], lenient=%v)", op.Column, op.Column, op.Lenient)
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

// Apply implements Op.
func (op Derive) Apply(t *table.Table) (*table.Table, error) {
	expr, err := sqlengine.ParseExpr(op.Expr)
	if err != nil {
		return nil, &Error{Op: "DERIVE", Msg: fmt.Sprintf("bad expression %q: %v", op.Expr, err)}
	}
	out := share(t)
	ci := out.Schema.ColumnIndex(op.Name)
	fresh := ci < 0
	if fresh {
		out.Schema.Columns = append(out.Schema.Columns, table.Column{Name: op.Name})
		ci = len(out.Schema.Columns) - 1
	}
	kind := value.KindNull
	for r, row := range t.Rows {
		// Evaluate against the original table so a replaced column's old
		// values stay visible to the expression.
		v, err := sqlengine.EvalOnRow(expr, t, row)
		if err != nil {
			return nil, &Error{Op: "DERIVE", Msg: fmt.Sprintf("row %d: %v", r, err)}
		}
		if fresh {
			// A new row, not append(row, v): row's backing array may have
			// room, and every table sharing the row would see the write.
			wide := make(table.Row, len(row)+1)
			copy(wide, row)
			wide[ci] = v
			out.Rows[r] = wide
		} else {
			setCell(out, r, ci, v)
		}
		kind = value.UnifyKinds(kind, v.Kind())
	}
	if kind == value.KindNull {
		kind = value.KindString
	}
	out.Schema.Columns[ci].Type = kind
	return out, nil
}

// Describe implements Op.
func (op Derive) Describe() string {
	return fmt.Sprintf("df[%q] = eval(%q)", op.Name, op.Expr)
}

// ---------------------------------------------------------------------------
// Rename / Keep / Drop
// ---------------------------------------------------------------------------

// Rename renames a column.
type Rename struct{ From, To string }

// Apply implements Op.
func (op Rename) Apply(t *table.Table) (*table.Table, error) {
	ci := t.Schema.ColumnIndex(op.From)
	if ci < 0 {
		return nil, colMissing("RENAME", op.From, t)
	}
	out := share(t)
	out.Schema.Columns[ci].Name = op.To
	return out, nil
}

// Describe implements Op.
func (op Rename) Describe() string {
	return fmt.Sprintf("df.rename(%q -> %q)", op.From, op.To)
}

// Keep projects the table down to the named columns, in the given order.
type Keep struct{ Columns []string }

// Apply implements Op.
func (op Keep) Apply(t *table.Table) (*table.Table, error) {
	idxs := make([]int, 0, len(op.Columns))
	for _, c := range op.Columns {
		ci := t.Schema.ColumnIndex(c)
		if ci < 0 {
			return nil, colMissing("KEEP", c, t)
		}
		idxs = append(idxs, ci)
	}
	out := table.New(table.Schema{Name: t.Schema.Name, Description: t.Schema.Description})
	for _, ci := range idxs {
		out.Schema.Columns = append(out.Schema.Columns, t.Schema.Columns[ci])
	}
	for _, row := range t.Rows {
		nr := make(table.Row, len(idxs))
		for i, ci := range idxs {
			nr[i] = row[ci]
		}
		out.Rows = append(out.Rows, nr)
	}
	return out, nil
}

// Describe implements Op.
func (op Keep) Describe() string {
	return fmt.Sprintf("df = df[[%s]]", strings.Join(op.Columns, ", "))
}

// Drop removes the named columns (missing names are an error, catching
// plan/schema drift early).
type Drop struct{ Columns []string }

// Apply implements Op.
func (op Drop) Apply(t *table.Table) (*table.Table, error) {
	dropSet := make(map[int]struct{}, len(op.Columns))
	for _, c := range op.Columns {
		ci := t.Schema.ColumnIndex(c)
		if ci < 0 {
			return nil, colMissing("DROP", c, t)
		}
		dropSet[ci] = struct{}{}
	}
	var keep []string
	for i, c := range t.Schema.Columns {
		if _, gone := dropSet[i]; !gone {
			keep = append(keep, c.Name)
		}
	}
	return Keep{Columns: keep}.Apply(t)
}

// Describe implements Op.
func (op Drop) Describe() string {
	return fmt.Sprintf("df = df.drop(columns=[%s])", strings.Join(op.Columns, ", "))
}

// ---------------------------------------------------------------------------
// FillNulls
// ---------------------------------------------------------------------------

// FillMethod selects the null-filling strategy.
type FillMethod string

// Fill methods.
const (
	// FillZero replaces nulls with 0.
	FillZero FillMethod = "zero"
	// FillMean replaces nulls with the column mean (numeric columns only).
	FillMean FillMethod = "mean"
	// FillForward carries the previous non-null value forward.
	FillForward FillMethod = "ffill"
)

// FillNulls fills NULLs in a column.
type FillNulls struct {
	Column string
	Method FillMethod
}

// Apply implements Op.
func (op FillNulls) Apply(t *table.Table) (*table.Table, error) {
	ci := t.Schema.ColumnIndex(op.Column)
	if ci < 0 {
		return nil, colMissing("FILL_NULLS", op.Column, t)
	}
	out := share(t)
	switch op.Method {
	case FillZero:
		for r, row := range t.Rows {
			if row[ci].IsNull() {
				setCell(out, r, ci, value.Float(0))
			}
		}
	case FillMean:
		var sum float64
		var n int
		for _, row := range t.Rows {
			if f, ok := row[ci].AsFloat(); ok && !row[ci].IsNull() {
				sum += f
				n++
			}
		}
		if n == 0 {
			return nil, &Error{Op: "FILL_NULLS", Msg: fmt.Sprintf("column %q has no numeric values to average", op.Column)}
		}
		mean := value.Float(sum / float64(n))
		for r, row := range t.Rows {
			if row[ci].IsNull() {
				setCell(out, r, ci, mean)
			}
		}
	case FillForward:
		last := value.Null()
		for r, row := range t.Rows {
			switch {
			case !row[ci].IsNull():
				last = row[ci]
			case !last.IsNull(): // nothing to carry into leading NULLs
				setCell(out, r, ci, last)
			}
		}
	default:
		return nil, &Error{Op: "FILL_NULLS", Msg: fmt.Sprintf("unknown method %q (want zero, mean or ffill)", op.Method)}
	}
	return out, nil
}

// Describe implements Op.
func (op FillNulls) Describe() string {
	return fmt.Sprintf("df[%q] = df[%q].fillna(method=%q)", op.Column, op.Column, op.Method)
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

// Apply implements Op.
func (op Interpolate) Apply(t *table.Table) (*table.Table, error) {
	xi := t.Schema.ColumnIndex(op.XColumn)
	if xi < 0 {
		return nil, colMissing("INTERPOLATE", op.XColumn, t)
	}
	yi := t.Schema.ColumnIndex(op.YColumn)
	if yi < 0 {
		return nil, colMissing("INTERPOLATE", op.YColumn, t)
	}
	out := share(t)
	// Sort row indices by X.
	type pt struct {
		row int
		x   float64
	}
	var pts []pt
	for r, row := range t.Rows {
		x, ok := row[xi].AsFloat()
		if !ok {
			return nil, &Error{Op: "INTERPOLATE", Msg: fmt.Sprintf(
				"x column %q has non-numeric value %q (parse it first)", op.XColumn, row[xi].String())}
		}
		pts = append(pts, pt{r, x})
	}
	// Stable sort: ties on X keep row order, so interpolation is
	// deterministic for repeated X values.
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].x < pts[j].x })

	// Known (x, y) anchor points in x order.
	type anchor struct{ x, y float64 }
	var anchors []anchor
	for _, p := range pts {
		v := t.Rows[p.row][yi]
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
		if !t.Rows[p.row][yi].IsNull() {
			continue
		}
		// Find the bracketing anchors.
		lo := sort.Search(len(anchors), func(i int) bool { return anchors[i].x >= p.x })
		if lo == 0 || lo == len(anchors) {
			continue // outside range: stays NULL
		}
		a, b := anchors[lo-1], anchors[lo]
		if b.x == a.x {
			setCell(out, p.row, yi, value.Float(a.y))
			continue
		}
		frac := (p.x - a.x) / (b.x - a.x)
		setCell(out, p.row, yi, value.Float(a.y+frac*(b.y-a.y)))
	}
	out.Schema.Columns[yi].Type = value.KindFloat
	return out, nil
}

// Describe implements Op.
func (op Interpolate) Describe() string {
	return fmt.Sprintf("df[%q] = np.interp(df[%q], known_x, known_y)", op.YColumn, op.XColumn)
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
// row matches the best-scoring right row whose similarity ≥ Threshold.
type FuzzyJoin struct {
	Right    *table.Table
	LeftKey  string
	RightKey string
	// Threshold is the minimum similarity in [0,1] (default 0.75).
	Threshold float64
	// KeepUnmatched keeps left rows without a match (right columns NULL).
	KeepUnmatched bool
}

// Apply implements Op.
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
	threshold := op.Threshold
	if threshold <= 0 {
		threshold = 0.75
	}

	out := table.New(table.Schema{Name: t.Schema.Name + "_joined"})
	out.Schema.Columns = append(out.Schema.Columns, t.Schema.Columns...)
	for _, c := range op.Right.Schema.Columns {
		name := c.Name
		if out.Schema.ColumnIndex(name) >= 0 {
			name = op.Right.Schema.Name + "_" + name
		}
		cc := c
		cc.Name = name
		out.Schema.Columns = append(out.Schema.Columns, cc)
	}

	rightWidth := op.Right.NumCols()
	for _, lrow := range t.Rows {
		lkey := normalizeKey(lrow[li].String())
		bestScore := -1.0
		bestRow := -1
		for rr, rrow := range op.Right.Rows {
			score := keySimilarity(lkey, normalizeKey(rrow[ri].String()))
			if score > bestScore {
				bestScore, bestRow = score, rr
			}
		}
		if bestRow >= 0 && bestScore >= threshold {
			nr := make(table.Row, 0, len(lrow)+rightWidth)
			nr = append(nr, lrow...)
			nr = append(nr, op.Right.Rows[bestRow]...)
			out.Rows = append(out.Rows, nr)
		} else if op.KeepUnmatched {
			nr := make(table.Row, len(lrow)+rightWidth)
			copy(nr, lrow)
			for i := len(lrow); i < len(nr); i++ {
				nr[i] = value.Null()
			}
			out.Rows = append(out.Rows, nr)
		}
	}
	return out, nil
}

// Describe implements Op.
func (op FuzzyJoin) Describe() string {
	return fmt.Sprintf("df = fuzzy_join(df, %s, left_on=%q, right_on=%q, threshold=%.2f)",
		op.Right.Schema.Name, op.LeftKey, op.RightKey, op.Threshold)
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

// ---------------------------------------------------------------------------
// AppendRows
// ---------------------------------------------------------------------------

// AppendRows unions the working table with Other by column name; Other's
// columns are aligned to the working table's schema and missing columns
// become NULL. Extra columns in Other are an error (silent data loss is
// worse than a repair-loop round trip).
type AppendRows struct {
	Other *table.Table
}

// Apply implements Op.
func (op AppendRows) Apply(t *table.Table) (*table.Table, error) {
	if op.Other == nil {
		return nil, &Error{Op: "APPEND_ROWS", Msg: "other table is nil"}
	}
	for _, c := range op.Other.Schema.Columns {
		if t.Schema.ColumnIndex(c.Name) < 0 {
			return nil, &Error{Op: "APPEND_ROWS", Msg: fmt.Sprintf(
				"column %q of %s not present in target schema %s",
				c.Name, op.Other.Schema.Name, t.Schema.String())}
		}
	}
	out := share(t)
	for _, orow := range op.Other.Rows {
		nr := make(table.Row, t.NumCols())
		for i, c := range t.Schema.Columns {
			oi := op.Other.Schema.ColumnIndex(c.Name)
			if oi < 0 {
				nr[i] = value.Null()
			} else {
				nr[i] = orow[oi]
			}
		}
		out.Rows = append(out.Rows, nr)
	}
	return out, nil
}

// Describe implements Op.
func (op AppendRows) Describe() string {
	name := "<nil>"
	if op.Other != nil {
		name = op.Other.Schema.Name
	}
	return fmt.Sprintf("df = pd.concat([df, %s])", name)
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
