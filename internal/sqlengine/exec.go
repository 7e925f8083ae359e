package sqlengine

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"

	"pneuma/internal/table"
	"pneuma/internal/value"
)

// executor runs a parsed Select against an Engine's catalog.
type executor struct {
	engine *Engine
}

// relation is an intermediate result: a frame over tuples of source row
// numbers. A tuple is width int32 row numbers, one per joined source, laid
// end to end in rows, so scans, filters and joins move row numbers and
// never write a cell. A scan of one table has no rows: its tuple i is row i.
type relation struct {
	frame *frame
	width int
	n     int
	rows  []int32
}

// tuple returns tuple i; a scan writes it into buf, of length 1.
func (r relation) tuple(i int, buf []int32) []int32 {
	if r.rows == nil {
		buf[0] = int32(i)
		return buf
	}
	return r.rows[i*r.width : (i+1)*r.width : (i+1)*r.width]
}

// nullTuple returns an all-NULL tuple of the relation's shape.
func (r relation) nullTuple() []int32 { return slices.Repeat([]int32{-1}, r.width) }

func (ex *executor) execSelect(sel *Select) (*table.Table, error) {
	out, err := ex.execSingle(sel)
	if err != nil || len(sel.Union) == 0 {
		return out, err
	}
	arms := []*table.Table{out}
	n := out.NumRows()
	for _, arm := range sel.Union {
		t, err := ex.execSingle(arm)
		if err != nil {
			return nil, err
		}
		if t.NumCols() != out.NumCols() {
			return nil, &EvalError{Msg: fmt.Sprintf(
				"UNION ALL arms have different column counts: %d vs %d",
				out.NumCols(), t.NumCols())}
		}
		for i := range out.Schema.Columns {
			out.Schema.Columns[i].Type = value.UnifyKinds(
				out.Schema.Columns[i].Type, t.Schema.Columns[i].Type)
		}
		arms = append(arms, t)
		n += t.NumRows()
	}
	cols := make([]table.ColumnBuilder, out.NumCols())
	for c := range cols {
		cols[c].Grow(n)
		for _, t := range arms {
			for r := range t.NumRows() {
				cols[c].Append(t.At(r, c))
			}
		}
	}
	return table.FromColumns(out.Schema, cols), nil
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
		rel = relation{frame: &frame{}, width: 1, n: 1}
	}

	// WHERE. Verdicts first, then the survivors' row numbers in one slice
	// of exactly their size.
	if sel.Where != nil {
		pass := make([]bool, rel.n)
		n := 0
		en := env{frame: rel.frame}
		buf := make([]int32, 1)
		for i := range pass {
			en.tuple = rel.tuple(i, buf)
			v, err := en.eval(sel.Where)
			if err != nil {
				return nil, err
			}
			if triOf(v) == triTrue {
				pass[i] = true
				n++
			}
		}
		if n < len(pass) {
			kept := make([]int32, 0, n*rel.width)
			for i, ok := range pass {
				if ok {
					kept = append(kept, rel.tuple(i, buf)...)
				}
			}
			rel.rows, rel.n = kept, n
		}
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

	var out *output
	if grouped {
		out, err = ex.execGrouped(sel, items, orderBy, rel, aggCalls)
	} else {
		out, err = ex.execPlain(items, orderBy, rel)
	}
	if err != nil {
		return nil, err
	}
	res := out.table(outputNames(items))

	// pick lists the output rows kept, in order; nil keeps every row in
	// evaluation order.
	var pick []int32
	if len(orderBy) > 0 {
		pick = out.sorted(orderBy)
	}
	m := res.NumRows()
	if sel.Distinct {
		seen := make(map[string]struct{}, m)
		kept := make([]int32, 0, m)
		row := make(table.Row, 0, res.NumCols())
		var kb []byte
		for i := range m {
			r := int32(i)
			if pick != nil {
				r = pick[i]
			}
			row = res.AppendRow(row[:0], int(r))
			kb = appendGroupKey(kb[:0], row)
			if _, dup := seen[string(kb)]; dup {
				continue
			}
			seen[string(kb)] = struct{}{}
			kept = append(kept, r)
		}
		pick, m = kept, len(kept)
	}

	// OFFSET / LIMIT.
	lo, hi := min(max(sel.Offset, 0), m), m
	if sel.Limit >= 0 {
		hi = min(hi, lo+sel.Limit)
	}
	if pick != nil || lo > 0 || hi < m {
		if pick == nil {
			pick = make([]int32, m)
			for i := range pick {
				pick[i] = int32(i)
			}
		}
		res = res.Take(pick[lo:hi])
	}

	// Type the output columns from the cells they hold.
	for c := range res.Schema.Columns {
		k := res.CellKind(c)
		if k == value.KindNull {
			k = value.KindString
		}
		res.Schema.Columns[c].Type = k
	}
	return res, nil
}

// output is a statement's select list as it is evaluated: one column
// builder per item, and every ORDER BY key in one slab.
type output struct {
	cols []table.ColumnBuilder
	keys []value.Value
	n    int
}

func newOutput(n int, items []SelectItem, orderBy []OrderItem) *output {
	o := &output{cols: make([]table.ColumnBuilder, len(items)), keys: make([]value.Value, 0, n*len(orderBy))}
	for i := range o.cols {
		o.cols[i].Grow(n)
	}
	return o
}

// add evaluates the select list and the ORDER BY keys in en as the next row.
func (o *output) add(en *env, items []SelectItem, orderBy []OrderItem) error {
	for i, it := range items {
		v, err := en.eval(it.Expr)
		if err != nil {
			return err
		}
		o.cols[i].Append(v)
	}
	for _, ob := range orderBy {
		v, err := en.eval(ob.Expr)
		if err != nil {
			return err
		}
		o.keys = append(o.keys, v)
	}
	o.n++
	return nil
}

// table makes the evaluated rows a table named "result" with the given
// column names.
func (o *output) table(names []string) *table.Table {
	schema := table.Schema{Name: "result", Columns: make([]table.Column, len(names))}
	for i, name := range names {
		schema.Columns[i].Name = name
	}
	return table.FromColumns(schema, o.cols)
}

// sorted returns the row numbers stably sorted by their ORDER BY keys.
func (o *output) sorted(orderBy []OrderItem) []int32 {
	kw := len(orderBy)
	perm := make([]int32, o.n)
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortStableFunc(perm, func(a, b int32) int {
		return compareKeys(o.keys[int(a)*kw:int(a+1)*kw], o.keys[int(b)*kw:int(b+1)*kw], orderBy)
	})
	return perm
}

// execPlain handles non-grouped selection: projection plus ORDER BY
// evaluated against the input tuples.
func (ex *executor) execPlain(items []SelectItem, orderBy []OrderItem, rel relation) (*output, error) {
	out := newOutput(rel.n, items, orderBy)
	en := env{frame: rel.frame}
	buf := make([]int32, 1)
	for i := range rel.n {
		en.tuple = rel.tuple(i, buf)
		if err := out.add(&en, items, orderBy); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// group accumulates one GROUP BY bucket.
type group struct {
	rep  []int32 // representative (first) input tuple
	accs map[string]accumulator
}

// execGrouped handles GROUP BY / aggregate selection.
func (ex *executor) execGrouped(sel *Select, items []SelectItem, orderBy []OrderItem, rel relation, aggCalls []*FuncCall) (*output, error) {
	// Deduplicate aggregate calls by canonical string.
	uniqueAggs := make(map[string]*FuncCall)
	for _, fc := range aggCalls {
		uniqueAggs[fc.String()] = fc
	}
	newGroup := func(rep []int32) (*group, error) {
		grp := &group{rep: rep, accs: make(map[string]accumulator, len(uniqueAggs))}
		for s, fc := range uniqueAggs {
			acc, err := newAccumulator(fc)
			if err != nil {
				return nil, evalErrf(fc, "%s", err.Error())
			}
			grp.accs[s] = acc
		}
		return grp, nil
	}

	groups := make(map[string]*group)
	var order []*group // group insertion order for determinism
	keyVals := make([]value.Value, len(sel.GroupBy))
	var kb []byte
	var reps []int32 // every group's representative tuple, end to end
	en := env{frame: rel.frame}
	buf := make([]int32, 1)
	for i := range rel.n {
		en.tuple = rel.tuple(i, buf)
		for j, g := range sel.GroupBy {
			v, err := en.eval(g)
			if err != nil {
				return nil, err
			}
			keyVals[j] = v
		}
		kb = appendGroupKey(kb[:0], keyVals)
		grp, ok := groups[string(kb)]
		if !ok {
			var err error
			reps = append(reps, en.tuple...)
			if grp, err = newGroup(reps[len(reps)-rel.width : len(reps) : len(reps)]); err != nil {
				return nil, err
			}
			groups[string(kb)] = grp
			order = append(order, grp)
		}
		for s, fc := range uniqueAggs {
			var arg value.Value
			switch {
			case fc.Star:
				arg = value.Bool(true) // COUNT(*) counts rows
			case len(fc.Args) == 1:
				v, err := en.eval(fc.Args[0])
				if err != nil {
					return nil, err
				}
				arg = v
			default:
				return nil, evalErrf(fc, "aggregate %s expects exactly 1 argument, got %d", fc.Name, len(fc.Args))
			}
			if err := grp.accs[s].add(arg); err != nil {
				return nil, evalErrf(fc, "%s", err.Error())
			}
		}
	}

	// A global aggregate over zero rows still yields one group, whose
	// representative tuple is all NULL.
	if len(order) == 0 && len(sel.GroupBy) == 0 {
		grp, err := newGroup(rel.nullTuple())
		if err != nil {
			return nil, err
		}
		order = append(order, grp)
	}

	out := newOutput(len(order), items, orderBy)
	for _, grp := range order {
		aggVals := make(map[string]value.Value, len(grp.accs))
		for s, acc := range grp.accs {
			aggVals[s] = acc.result()
		}
		en := env{frame: rel.frame, tuple: grp.rep, aggs: aggVals}
		if sel.Having != nil {
			hv, err := en.eval(sel.Having)
			if err != nil {
				return nil, err
			}
			if triOf(hv) != triTrue {
				continue
			}
		}
		if err := out.add(&en, items, orderBy); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// compareKeys orders two rows' ORDER BY keys.
func compareKeys(a, b []value.Value, order []OrderItem) int {
	for i, o := range order {
		if c := value.Compare(a[i], b[i]); c != 0 {
			if o.Desc {
				return -c
			}
			return c
		}
	}
	return 0
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
	f := &frame{cols: make([]execCol, len(t.Schema.Columns))}
	for i, c := range t.Schema.Columns {
		f.cols[i] = execCol{qual: qual, name: c.Name, vec: t.Vector(i)}
	}
	return relation{frame: f, width: 1, n: t.NumRows()}, nil
}

// execJoin joins two relations. Equi-join conjuncts are executed as a hash
// join; remaining predicates run as a post-filter. CROSS JOIN and
// non-equi-joins fall back to nested loops. Either way an output tuple is
// the left tuple followed by the right one, built in one scratch tuple that
// every predicate is evaluated on; LEFT JOIN pads with one all-NULL tuple.
func (ex *executor) execJoin(left, right relation, jc JoinClause) (relation, error) {
	combined := &frame{cols: slices.Concat(left.frame.cols, right.frame.cols)}
	for i := len(left.frame.cols); i < len(combined.cols); i++ {
		combined.cols[i].src += left.width
	}

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

	out := relation{frame: combined, width: left.width + right.width}
	rows := make([]int32, 0, left.n*out.width)
	en := env{frame: combined, tuple: make([]int32, out.width)}
	rightPart := en.tuple[left.width:]
	nullRight := right.nullTuple() // LEFT JOIN's padding
	lbuf, rbuf := make([]int32, 1), make([]int32, 1)

	// Hash join: index the right tuples by key, each distinct key heading
	// a chain of the tuples that carry it, in input order.
	hashed := len(leftKeys) > 0
	var index map[string]int // key → its chain
	var heads, tails, next []int
	if hashed {
		index, next = make(map[string]int, right.n), make([]int, right.n)
	}
	met := make([]keyClass, len(rightKeys)) // per key, every class indexed
	var kb []byte
	cls := make([]keyClass, len(leftKeys))
	ren := env{frame: right.frame}
	for j := 0; hashed && j < right.n; j++ {
		ren.tuple = right.tuple(j, rbuf)
		var null bool
		var err error
		if kb, null, err = appendJoinKeys(kb[:0], &ren, rightKeys, cls); err != nil {
			return relation{}, err
		}
		if null {
			continue
		}
		for i, c := range cls {
			met[i] |= c
		}
		next[j] = -1
		if ci, ok := index[string(kb)]; ok {
			next[tails[ci]] = j
			tails[ci] = j
			continue
		}
		index[string(kb)] = len(heads)
		heads = append(heads, j)
		tails = append(tails, j)
	}
	// cond is the whole join condition, for the right tuples a left tuple
	// meets without an index.
	cond := conjuncts
	if jc.On != nil {
		cond = []Expr{jc.On}
	}
	lenv := env{frame: left.frame}
	for i := range left.n {
		lenv.tuple = left.tuple(i, lbuf)
		copy(en.tuple, lenv.tuple)
		matched := false
		// try appends left ++ right tuple j when every pred holds on it.
		try := func(j int, preds []Expr) error {
			copy(rightPart, right.tuple(j, rbuf))
			for _, p := range preds {
				v, err := en.eval(p)
				if err != nil || triOf(v) != triTrue {
					return err
				}
			}
			rows = append(rows, en.tuple...)
			matched = true
			return nil
		}
		scan, null := !hashed, false
		var err error
		if hashed {
			if kb, null, err = appendJoinKeys(kb[:0], &lenv, leftKeys, cls); err != nil {
				return relation{}, err
			}
			// A key that = compares with some indexed key by a rule no
			// hash key expresses meets every right tuple instead.
			for k, c := range cls {
				scan = scan || met[k]&^hashable(c) != 0
			}
		}
		switch {
		case null: // NULL keys never match
		case scan:
			for j := 0; j < right.n && err == nil; j++ {
				err = try(j, cond)
			}
		default:
			if ci, ok := index[string(kb)]; ok {
				for j := heads[ci]; j >= 0 && err == nil; j = next[j] {
					err = try(j, residual)
				}
			}
		}
		if err != nil {
			return relation{}, err
		}
		if !matched && jc.Kind == JoinLeft {
			copy(rightPart, nullRight)
			rows = append(rows, en.tuple...)
		}
	}
	out.rows, out.n = rows, len(rows)/out.width
	return out, nil
}

// keyClass sorts a join key by the rule = compares it under (value.Compare):
// keys of one hashable class are = exactly when their appended bytes are.
type keyClass uint8

const (
	classNum   keyClass = 1 << iota // int, float, numeric string: by float64
	classStr                        // any other string: by its text
	classTime                       // by its instant
	classOther                      // bool, NaN string: = by rules no key expresses
)

// hashable returns the classes a key of class c may be hashed against.
func hashable(c keyClass) keyClass {
	switch c {
	case classNum, classStr:
		return classNum | classStr
	case classTime:
		return classTime
	}
	return 0
}

// appendJoinKeys evaluates keys in en and appends their hash-join key to
// dst, writing each one's class to cls. null reports a NULL key, which
// never matches; the keys after it are not evaluated.
func appendJoinKeys(dst []byte, en *env, keys []Expr, cls []keyClass) (_ []byte, null bool, _ error) {
	for i, k := range keys {
		v, err := en.eval(k)
		if err != nil || v.IsNull() {
			return dst, v.IsNull(), err
		}
		var f float64
		switch v.Kind() {
		case value.KindInt, value.KindFloat:
			f, cls[i] = v.FloatVal(), classNum
		case value.KindString:
			var ok bool
			if f, ok = v.AsFloat(); !ok {
				s := v.StringVal()
				dst = append(binary.AppendUvarint(append(dst, 's'), uint64(len(s))), s...)
				cls[i] = classStr
				continue
			}
			cls[i] = classNum
			if math.IsNaN(f) {
				cls[i] = classOther
			}
		case value.KindTime:
			t := v.TimeVal()
			dst = binary.LittleEndian.AppendUint64(append(dst, 't'), uint64(t.Unix()))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(t.Nanosecond()))
			cls[i] = classTime
			continue
		default:
			cls[i] = classOther
		}
		if f == 0 {
			f = 0 // -0 = 0
		}
		dst = binary.LittleEndian.AppendUint64(append(dst, 'n'), math.Float64bits(f))
	}
	return dst, false, nil
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
