package sqlengine

import (
	"fmt"
	"sort"
	"strings"

	"pneuma/internal/table"
	"pneuma/internal/value"
)

// executor runs a parsed Select against an Engine's catalog.
type executor struct {
	engine *Engine
}

// relation is an intermediate result: a frame plus rows.
type relation struct {
	frame *frame
	rows  [][]value.Value
}

func (ex *executor) execSelect(sel *Select) (*table.Table, error) {
	out, err := ex.execSingle(sel)
	if err != nil {
		return nil, err
	}
	for _, arm := range sel.Union {
		armOut, err := ex.execSingle(arm)
		if err != nil {
			return nil, err
		}
		if armOut.NumCols() != out.NumCols() {
			return nil, &EvalError{Msg: fmt.Sprintf(
				"UNION ALL arms have different column counts: %d vs %d",
				out.NumCols(), armOut.NumCols())}
		}
		for i := range out.Schema.Columns {
			out.Schema.Columns[i].Type = value.UnifyKinds(
				out.Schema.Columns[i].Type, armOut.Schema.Columns[i].Type)
		}
		out.Rows = append(out.Rows, armOut.Rows...)
	}
	return out, nil
}

// execSingle executes one SELECT without its union arms.
func (ex *executor) execSingle(sel *Select) (*table.Table, error) {
	var rel relation
	if sel.From != nil {
		r, err := ex.execFrom(sel.From)
		if err != nil {
			return nil, err
		}
		rel = r
	} else {
		// FROM-less SELECT evaluates over a single empty row.
		rel = relation{frame: &frame{}, rows: [][]value.Value{{}}}
	}

	// WHERE.
	if sel.Where != nil {
		filtered := rel.rows[:0:0]
		for _, row := range rel.rows {
			en := &env{frame: rel.frame, row: row, funcs: ex.engine.funcs}
			v, err := en.eval(sel.Where)
			if err != nil {
				return nil, err
			}
			if triOf(v) == triTrue {
				filtered = append(filtered, row)
			}
		}
		rel.rows = filtered
	}

	// Expand stars in the select list against the input frame.
	items, err := expandStars(sel.Items, rel.frame)
	if err != nil {
		return nil, err
	}

	// Rewrite ORDER BY aliases/ordinals to the underlying expressions.
	orderBy, err := rewriteOrderBy(sel.OrderBy, items)
	if err != nil {
		return nil, err
	}

	// Detect grouping.
	var aggCalls []*FuncCall
	for _, it := range items {
		if err := collectAggregates(it.Expr, &aggCalls); err != nil {
			return nil, err
		}
	}
	if sel.Having != nil {
		if err := collectAggregates(sel.Having, &aggCalls); err != nil {
			return nil, err
		}
	}
	for _, o := range orderBy {
		if err := collectAggregates(o.Expr, &aggCalls); err != nil {
			return nil, err
		}
	}
	grouped := len(sel.GroupBy) > 0 || len(aggCalls) > 0

	var outNames []string
	var outRows [][]value.Value
	if grouped {
		outNames, outRows, err = ex.execGrouped(sel, items, orderBy, rel, aggCalls)
	} else {
		outNames, outRows, err = ex.execPlain(sel, items, orderBy, rel)
	}
	if err != nil {
		return nil, err
	}

	// DISTINCT.
	if sel.Distinct {
		seen := make(map[string]struct{}, len(outRows))
		dedup := outRows[:0:0]
		for _, row := range outRows {
			k := groupKey(row)
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			dedup = append(dedup, row)
		}
		outRows = dedup
	}

	// LIMIT / OFFSET.
	if sel.Offset > 0 {
		if sel.Offset >= len(outRows) {
			outRows = nil
		} else {
			outRows = outRows[sel.Offset:]
		}
	}
	if sel.Limit >= 0 && sel.Limit < len(outRows) {
		outRows = outRows[:sel.Limit]
	}

	// Build the output table, inferring column types from the data.
	schema := table.Schema{Name: "result"}
	kinds := make([]value.Kind, len(outNames))
	for _, row := range outRows {
		for i, v := range row {
			kinds[i] = value.UnifyKinds(kinds[i], v.Kind())
		}
	}
	for i, name := range outNames {
		k := kinds[i]
		if k == value.KindNull {
			k = value.KindString
		}
		schema.Columns = append(schema.Columns, table.Column{Name: name, Type: k})
	}
	out := table.New(schema)
	for _, row := range outRows {
		out.Rows = append(out.Rows, table.Row(row))
	}
	return out, nil
}

// execPlain handles non-grouped selection: projection plus ORDER BY
// evaluated against the input rows.
func (ex *executor) execPlain(sel *Select, items []SelectItem, orderBy []OrderItem, rel relation) ([]string, [][]value.Value, error) {
	type sortable struct {
		out  []value.Value
		keys []value.Value
	}
	rows := make([]sortable, 0, len(rel.rows))
	for _, in := range rel.rows {
		en := &env{frame: rel.frame, row: in, funcs: ex.engine.funcs}
		out := make([]value.Value, len(items))
		for i, it := range items {
			v, err := en.eval(it.Expr)
			if err != nil {
				return nil, nil, err
			}
			out[i] = v
		}
		var keys []value.Value
		for _, o := range orderBy {
			v, err := en.eval(o.Expr)
			if err != nil {
				return nil, nil, err
			}
			keys = append(keys, v)
		}
		rows = append(rows, sortable{out: out, keys: keys})
	}
	if len(orderBy) > 0 {
		sort.SliceStable(rows, func(a, b int) bool {
			return lessKeys(rows[a].keys, rows[b].keys, orderBy)
		})
	}
	outRows := make([][]value.Value, len(rows))
	for i, r := range rows {
		outRows[i] = r.out
	}
	return outputNames(items), outRows, nil
}

// group accumulates one GROUP BY bucket.
type group struct {
	rep  []value.Value // representative (first) input row
	accs map[string]accumulator
}

// execGrouped handles GROUP BY / aggregate selection.
func (ex *executor) execGrouped(sel *Select, items []SelectItem, orderBy []OrderItem, rel relation, aggCalls []*FuncCall) ([]string, [][]value.Value, error) {
	// Deduplicate aggregate calls by canonical string.
	uniqueAggs := make(map[string]*FuncCall)
	for _, fc := range aggCalls {
		uniqueAggs[fc.String()] = fc
	}

	groups := make(map[string]*group)
	var order []string // group insertion order for determinism
	for _, in := range rel.rows {
		en := &env{frame: rel.frame, row: in, funcs: ex.engine.funcs}
		keyVals := make([]value.Value, len(sel.GroupBy))
		for i, g := range sel.GroupBy {
			v, err := en.eval(g)
			if err != nil {
				return nil, nil, err
			}
			keyVals[i] = v
		}
		k := groupKey(keyVals)
		grp, ok := groups[k]
		if !ok {
			grp = &group{rep: in, accs: make(map[string]accumulator, len(uniqueAggs))}
			for s, fc := range uniqueAggs {
				acc, err := newAccumulator(fc)
				if err != nil {
					return nil, nil, evalErrf(fc, "%s", err.Error())
				}
				grp.accs[s] = acc
			}
			groups[k] = grp
			order = append(order, k)
		}
		for s, fc := range uniqueAggs {
			var arg value.Value
			switch {
			case fc.Star:
				arg = value.Bool(true) // COUNT(*) counts rows
			case len(fc.Args) == 1:
				v, err := en.eval(fc.Args[0])
				if err != nil {
					return nil, nil, err
				}
				arg = v
			default:
				return nil, nil, evalErrf(fc, "aggregate %s expects exactly 1 argument, got %d", fc.Name, len(fc.Args))
			}
			if err := grp.accs[s].add(arg); err != nil {
				return nil, nil, evalErrf(fc, "%s", err.Error())
			}
		}
	}

	// A global aggregate over zero rows still yields one group.
	if len(groups) == 0 && len(sel.GroupBy) == 0 {
		grp := &group{rep: make([]value.Value, len(rel.frame.cols)), accs: make(map[string]accumulator, len(uniqueAggs))}
		for i := range grp.rep {
			grp.rep[i] = value.Null()
		}
		for s, fc := range uniqueAggs {
			acc, err := newAccumulator(fc)
			if err != nil {
				return nil, nil, evalErrf(fc, "%s", err.Error())
			}
			grp.accs[s] = acc
		}
		groups[""] = grp
		order = append(order, "")
	}

	type sortable struct {
		out  []value.Value
		keys []value.Value
	}
	var rows []sortable
	for _, k := range order {
		grp := groups[k]
		aggVals := make(map[string]value.Value, len(grp.accs))
		for s, acc := range grp.accs {
			aggVals[s] = acc.result()
		}
		en := &env{frame: rel.frame, row: grp.rep, aggs: aggVals, funcs: ex.engine.funcs}
		if sel.Having != nil {
			hv, err := en.eval(sel.Having)
			if err != nil {
				return nil, nil, err
			}
			if triOf(hv) != triTrue {
				continue
			}
		}
		out := make([]value.Value, len(items))
		for i, it := range items {
			v, err := en.eval(it.Expr)
			if err != nil {
				return nil, nil, err
			}
			out[i] = v
		}
		var keys []value.Value
		for _, o := range orderBy {
			v, err := en.eval(o.Expr)
			if err != nil {
				return nil, nil, err
			}
			keys = append(keys, v)
		}
		rows = append(rows, sortable{out: out, keys: keys})
	}
	if len(orderBy) > 0 {
		sort.SliceStable(rows, func(a, b int) bool {
			return lessKeys(rows[a].keys, rows[b].keys, orderBy)
		})
	}
	outRows := make([][]value.Value, len(rows))
	for i, r := range rows {
		outRows[i] = r.out
	}
	return outputNames(items), outRows, nil
}

func lessKeys(a, b []value.Value, order []OrderItem) bool {
	for i, o := range order {
		c := value.Compare(a[i], b[i])
		if c != 0 {
			if o.Desc {
				return c > 0
			}
			return c < 0
		}
	}
	return false
}

// outputNames derives the output column name of each select item.
func outputNames(items []SelectItem) []string {
	names := make([]string, len(items))
	for i, it := range items {
		switch {
		case it.Alias != "":
			names[i] = it.Alias
		default:
			if cr, ok := it.Expr.(*ColumnRef); ok {
				names[i] = cr.Column
			} else {
				names[i] = it.Expr.String()
			}
		}
	}
	return names
}

// expandStars replaces * and alias.* with explicit column references.
func expandStars(items []SelectItem, f *frame) ([]SelectItem, error) {
	out := make([]SelectItem, 0, len(items))
	for _, it := range items {
		st, ok := it.Expr.(*Star)
		if !ok {
			out = append(out, it)
			continue
		}
		qual := strings.ToLower(st.Table)
		matched := false
		for _, c := range f.cols {
			if qual != "" && c.qual != qual {
				continue
			}
			matched = true
			out = append(out, SelectItem{Expr: &ColumnRef{Table: c.qual, Column: c.name}, Alias: c.name})
		}
		if !matched {
			if qual != "" {
				return nil, &EvalError{Expr: st.String(), Msg: fmt.Sprintf("unknown table alias %q", st.Table)}
			}
			return nil, &EvalError{Expr: "*", Msg: "SELECT * with no input columns"}
		}
	}
	return out, nil
}

// rewriteOrderBy resolves ORDER BY aliases and ordinals against the select
// list: `ORDER BY total` where total is an output alias, and `ORDER BY 2`.
func rewriteOrderBy(orderBy []OrderItem, items []SelectItem) ([]OrderItem, error) {
	out := make([]OrderItem, len(orderBy))
	for i, o := range orderBy {
		out[i] = o
		if lit, ok := o.Expr.(*Literal); ok && lit.Val.Kind() == value.KindInt {
			n := int(lit.Val.IntVal())
			if n < 1 || n > len(items) {
				return nil, &EvalError{Msg: fmt.Sprintf("ORDER BY position %d is out of range (select list has %d items)", n, len(items))}
			}
			out[i].Expr = items[n-1].Expr
			continue
		}
		if cr, ok := o.Expr.(*ColumnRef); ok && cr.Table == "" {
			for _, it := range items {
				if it.Alias != "" && strings.EqualFold(it.Alias, cr.Column) {
					out[i].Expr = it.Expr
					break
				}
			}
		}
	}
	return out, nil
}

// execFrom evaluates a FROM clause item with its chained joins.
func (ex *executor) execFrom(ref *TableRef) (relation, error) {
	left, err := ex.execPrimary(ref)
	if err != nil {
		return relation{}, err
	}
	for _, jc := range ref.Joins {
		right, err := ex.execPrimary(jc.Right)
		if err != nil {
			return relation{}, err
		}
		left, err = ex.execJoin(left, right, jc)
		if err != nil {
			return relation{}, err
		}
	}
	return left, nil
}

// execPrimary evaluates a base table or subquery, applying its alias.
func (ex *executor) execPrimary(ref *TableRef) (relation, error) {
	var t *table.Table
	if ref.Sub != nil {
		sub, err := ex.execSelect(ref.Sub)
		if err != nil {
			return relation{}, err
		}
		t = sub
	} else {
		var ok bool
		t, ok = ex.engine.Table(ref.Name)
		if !ok {
			return relation{}, &EvalError{Expr: ref.Name, Msg: fmt.Sprintf(
				"table %q does not exist; known tables: %s", ref.Name, ex.engine.namesHint())}
		}
	}
	qual := ref.Alias
	if qual == "" {
		qual = ref.Name
	}
	qual = strings.ToLower(qual)
	f := &frame{}
	for _, c := range t.Schema.Columns {
		f.cols = append(f.cols, execCol{qual: qual, name: c.Name})
	}
	rows := make([][]value.Value, len(t.Rows))
	for i, r := range t.Rows {
		rows[i] = r
	}
	return relation{frame: f, rows: rows}, nil
}

// execJoin joins two relations. Equi-join conjuncts are executed as a hash
// join; remaining predicates run as a post-filter. CROSS JOIN and
// non-equi-joins fall back to nested loops.
func (ex *executor) execJoin(left, right relation, jc JoinClause) (relation, error) {
	combined := &frame{cols: append(append([]execCol(nil), left.frame.cols...), right.frame.cols...)}

	// Build the join condition: USING(col,...) becomes equi-pairs.
	var conjuncts []Expr
	if len(jc.Using) > 0 {
		for _, col := range jc.Using {
			lq, err := qualFor(left.frame, col)
			if err != nil {
				return relation{}, err
			}
			rq, err := qualFor(right.frame, col)
			if err != nil {
				return relation{}, err
			}
			conjuncts = append(conjuncts, &Binary{Op: "=",
				Left:  &ColumnRef{Table: lq, Column: col},
				Right: &ColumnRef{Table: rq, Column: col}})
		}
	} else if jc.On != nil {
		conjuncts = splitConjuncts(jc.On)
	}

	var leftKeys, rightKeys []Expr
	var residual []Expr
	for _, c := range conjuncts {
		bin, ok := c.(*Binary)
		if ok && bin.Op == "=" {
			lOnLeft := exprResolvesIn(bin.Left, left.frame) && !exprResolvesIn(bin.Left, right.frame)
			rOnRight := exprResolvesIn(bin.Right, right.frame) && !exprResolvesIn(bin.Right, left.frame)
			if lOnLeft && rOnRight {
				leftKeys = append(leftKeys, bin.Left)
				rightKeys = append(rightKeys, bin.Right)
				continue
			}
			lOnRight := exprResolvesIn(bin.Left, right.frame) && !exprResolvesIn(bin.Left, left.frame)
			rOnLeft := exprResolvesIn(bin.Right, left.frame) && !exprResolvesIn(bin.Right, right.frame)
			if lOnRight && rOnLeft {
				leftKeys = append(leftKeys, bin.Right)
				rightKeys = append(rightKeys, bin.Left)
				continue
			}
		}
		residual = append(residual, c)
	}

	matchResidual := func(row []value.Value) (bool, error) {
		for _, res := range residual {
			en := &env{frame: combined, row: row, funcs: ex.engine.funcs}
			v, err := en.eval(res)
			if err != nil {
				return false, err
			}
			if triOf(v) != triTrue {
				return false, nil
			}
		}
		return true, nil
	}

	var out [][]value.Value
	rightWidth := len(right.frame.cols)

	if len(leftKeys) > 0 {
		// Hash join: build on right, probe from left.
		build := make(map[string][][]value.Value, len(right.rows))
		for _, rrow := range right.rows {
			en := &env{frame: right.frame, row: rrow, funcs: ex.engine.funcs}
			keys := make([]value.Value, len(rightKeys))
			null := false
			for i, k := range rightKeys {
				v, err := en.eval(k)
				if err != nil {
					return relation{}, err
				}
				if v.IsNull() {
					null = true
					break
				}
				keys[i] = v
			}
			if null {
				continue // NULL keys never match
			}
			gk := groupKey(keys)
			build[gk] = append(build[gk], rrow)
		}
		for _, lrow := range left.rows {
			en := &env{frame: left.frame, row: lrow, funcs: ex.engine.funcs}
			keys := make([]value.Value, len(leftKeys))
			null := false
			for i, k := range leftKeys {
				v, err := en.eval(k)
				if err != nil {
					return relation{}, err
				}
				if v.IsNull() {
					null = true
					break
				}
				keys[i] = v
			}
			matched := false
			if !null {
				for _, rrow := range build[groupKey(keys)] {
					row := combineRows(lrow, rrow)
					ok, err := matchResidual(row)
					if err != nil {
						return relation{}, err
					}
					if ok {
						out = append(out, row)
						matched = true
					}
				}
			}
			if !matched && jc.Kind == JoinLeft {
				out = append(out, padRight(lrow, rightWidth))
			}
		}
		return relation{frame: combined, rows: out}, nil
	}

	// Nested loop (CROSS JOIN or non-equi condition).
	for _, lrow := range left.rows {
		matched := false
		for _, rrow := range right.rows {
			row := combineRows(lrow, rrow)
			if jc.Kind != JoinCross {
				ok := true
				if jc.On != nil {
					en := &env{frame: combined, row: row, funcs: ex.engine.funcs}
					v, err := en.eval(jc.On)
					if err != nil {
						return relation{}, err
					}
					ok = triOf(v) == triTrue
				}
				if !ok {
					continue
				}
			}
			out = append(out, row)
			matched = true
		}
		if !matched && jc.Kind == JoinLeft {
			out = append(out, padRight(lrow, rightWidth))
		}
	}
	return relation{frame: combined, rows: out}, nil
}

func combineRows(l, r []value.Value) []value.Value {
	row := make([]value.Value, 0, len(l)+len(r))
	row = append(row, l...)
	return append(row, r...)
}

func padRight(l []value.Value, width int) []value.Value {
	row := make([]value.Value, len(l)+width)
	copy(row, l)
	for i := len(l); i < len(row); i++ {
		row[i] = value.Null()
	}
	return row
}

// qualFor returns the qualifier under which col is reachable in f, erroring
// when absent or ambiguous.
func qualFor(f *frame, col string) (string, error) {
	qual := ""
	for _, c := range f.cols {
		if strings.EqualFold(c.name, col) {
			if qual != "" {
				return "", &EvalError{Expr: col, Msg: fmt.Sprintf("USING column %q is ambiguous", col)}
			}
			qual = c.qual
		}
	}
	if qual == "" {
		return "", &EvalError{Expr: col, Msg: fmt.Sprintf("USING column %q not found; available: %s", col, f.describe())}
	}
	return qual, nil
}

// splitConjuncts flattens a tree of AND into its conjuncts.
func splitConjuncts(e Expr) []Expr {
	if bin, ok := e.(*Binary); ok && bin.Op == "AND" {
		return append(splitConjuncts(bin.Left), splitConjuncts(bin.Right)...)
	}
	return []Expr{e}
}

// exprResolvesIn reports whether every column reference in e resolves in f
// (and e references at least one column).
func exprResolvesIn(e Expr, f *frame) bool {
	refs := collectColumnRefs(e)
	if len(refs) == 0 {
		return false
	}
	for _, r := range refs {
		if _, err := f.index(r); err != nil {
			return false
		}
	}
	return true
}

func collectColumnRefs(e Expr) []*ColumnRef {
	var out []*ColumnRef
	var walk func(Expr)
	walk = func(e Expr) {
		switch ex := e.(type) {
		case nil, *Literal, *Star:
		case *ColumnRef:
			out = append(out, ex)
		case *Unary:
			walk(ex.Expr)
		case *Binary:
			walk(ex.Left)
			walk(ex.Right)
		case *Between:
			walk(ex.Expr)
			walk(ex.Lo)
			walk(ex.Hi)
		case *InList:
			walk(ex.Expr)
			for _, it := range ex.Items {
				walk(it)
			}
		case *IsNull:
			walk(ex.Expr)
		case *FuncCall:
			for _, a := range ex.Args {
				walk(a)
			}
		case *CaseExpr:
			walk(ex.Operand)
			for _, w := range ex.Whens {
				walk(w.Cond)
				walk(w.Result)
			}
			walk(ex.Else)
		case *CastExpr:
			walk(ex.Expr)
		}
	}
	walk(e)
	return out
}
