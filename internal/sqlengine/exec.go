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

// relation is an intermediate result: a frame over tuples of source rows. A
// tuple is width rows laid end to end in rows, one row per joined source, so
// scans, filters and joins move row headers and never write a cell.
type relation struct {
	frame *frame
	width int
	rows  []table.Row
}

// len returns the number of tuples.
func (r relation) len() int { return len(r.rows) / r.width }

// tuple returns tuple i.
func (r relation) tuple(i int) []table.Row { return r.rows[i*r.width : (i+1)*r.width : (i+1)*r.width] }

// nullTuple returns an all-NULL tuple of the relation's shape.
func (r relation) nullTuple() []table.Row {
	n := 0 // long enough for every position the frame reads
	for _, c := range r.frame.cols {
		n = max(n, c.pos+1)
	}
	return slices.Repeat([]table.Row{make(table.Row, n)}, r.width)
}

func (ex *executor) execSelect(sel *Select) (*table.Table, error) {
	schema, rows, err := ex.execSingle(sel)
	if err != nil {
		return nil, err
	}
	for _, arm := range sel.Union {
		armSchema, armRows, err := ex.execSingle(arm)
		if err != nil {
			return nil, err
		}
		if len(armSchema.Columns) != len(schema.Columns) {
			return nil, &EvalError{Msg: fmt.Sprintf(
				"UNION ALL arms have different column counts: %d vs %d",
				len(schema.Columns), len(armSchema.Columns))}
		}
		for i := range schema.Columns {
			schema.Columns[i].Type = value.UnifyKinds(
				schema.Columns[i].Type, armSchema.Columns[i].Type)
		}
		rows = append(rows, armRows...)
	}
	return table.FromRows(schema, rows), nil
}

// execSingle executes one SELECT without its union arms, returning the
// result's schema and its rows in schema order.
func (ex *executor) execSingle(sel *Select) (table.Schema, []table.Row, error) {
	var rel relation
	if sel.From != nil {
		r, err := ex.execFrom(sel.From)
		if err != nil {
			return table.Schema{}, nil, err
		}
		rel = r
	} else {
		// FROM-less SELECT evaluates over a single empty row.
		rel = relation{frame: &frame{}, width: 1, rows: []table.Row{nil}}
	}

	// WHERE. Verdicts first, then the survivors' headers in one slice of
	// exactly their size: rel.rows may alias a base table's Stored(), so
	// the filter never compacts it in place.
	if sel.Where != nil {
		pass := make([]bool, rel.len())
		n := 0
		en := env{frame: rel.frame}
		for i := range pass {
			en.tuple = rel.tuple(i)
			v, err := en.eval(sel.Where)
			if err != nil {
				return table.Schema{}, nil, err
			}
			if triOf(v) == triTrue {
				pass[i] = true
				n++
			}
		}
		switch n {
		case 0:
			rel.rows = nil
		case len(pass):
			// Every tuple survives: rel.rows is already the result.
		default:
			kept := make([]table.Row, 0, n*rel.width)
			for i, ok := range pass {
				if ok {
					kept = append(kept, rel.tuple(i)...)
				}
			}
			rel.rows = kept
		}
	}

	// Expand stars in the select list against the input frame.
	items, err := expandStars(sel.Items, rel.frame)
	if err != nil {
		return table.Schema{}, nil, err
	}

	// Rewrite ORDER BY aliases/ordinals to the underlying expressions.
	orderBy, err := rewriteOrderBy(sel.OrderBy, items)
	if err != nil {
		return table.Schema{}, nil, err
	}

	// Detect grouping.
	var aggCalls []*FuncCall
	for _, it := range items {
		if err := collectAggregates(it.Expr, &aggCalls); err != nil {
			return table.Schema{}, nil, err
		}
	}
	if sel.Having != nil {
		if err := collectAggregates(sel.Having, &aggCalls); err != nil {
			return table.Schema{}, nil, err
		}
	}
	for _, o := range orderBy {
		if err := collectAggregates(o.Expr, &aggCalls); err != nil {
			return table.Schema{}, nil, err
		}
	}
	grouped := len(sel.GroupBy) > 0 || len(aggCalls) > 0

	var outRows []table.Row
	if grouped {
		outRows, err = ex.execGrouped(sel, items, orderBy, rel, aggCalls)
	} else {
		outRows, err = ex.execPlain(items, orderBy, rel)
	}
	if err != nil {
		return table.Schema{}, nil, err
	}
	cut := len(outRows)

	// DISTINCT.
	if sel.Distinct {
		seen := make(map[string]struct{}, len(outRows))
		dedup := outRows[:0]
		var kb []byte
		for _, row := range outRows {
			kb = appendGroupKey(kb[:0], row)
			if _, dup := seen[string(kb)]; dup {
				continue
			}
			seen[string(kb)] = struct{}{}
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
	if 2*len(outRows) < cut {
		// Few survivors: copy them out so they do not pin the whole slab.
		outRows = (&output{cells: slices.Concat(outRows...)}).rows(len(items), nil)
	}

	// Build the output table, inferring column types from the data.
	outNames := outputNames(items)
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
	return schema, outRows, nil
}

// output is a statement's select-list rows as they are evaluated: every
// cell in one slab, every ORDER BY key in another.
type output struct{ cells, keys []value.Value }

func newOutput(n int, items []SelectItem, orderBy []OrderItem) *output {
	return &output{make([]value.Value, 0, n*len(items)), make([]value.Value, 0, n*len(orderBy))}
}

// add evaluates the select list and the ORDER BY keys in en as the next row.
func (o *output) add(en *env, items []SelectItem, orderBy []OrderItem) error {
	for _, it := range items {
		v, err := en.eval(it.Expr)
		if err != nil {
			return err
		}
		o.cells = append(o.cells, v)
	}
	for _, ob := range orderBy {
		v, err := en.eval(ob.Expr)
		if err != nil {
			return err
		}
		o.keys = append(o.keys, v)
	}
	return nil
}

// rows cuts width-wide rows from the cell slab, stably sorted by orderBy.
// Each row is capacity-limited, so an append onto one copies it.
func (o *output) rows(width int, orderBy []OrderItem) []table.Row {
	n := len(o.cells) / width
	if n == 0 {
		return nil
	}
	out := make([]table.Row, n)
	for i := range out {
		out[i] = o.cells[i*width : (i+1)*width : (i+1)*width]
	}
	if kw := len(orderBy); kw > 0 {
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		slices.SortStableFunc(perm, func(a, b int) int {
			return compareKeys(o.keys[a*kw:(a+1)*kw], o.keys[b*kw:(b+1)*kw], orderBy)
		})
		for i, j := range perm {
			out[i] = o.cells[j*width : (j+1)*width : (j+1)*width]
		}
	}
	return out
}

// execPlain handles non-grouped selection: projection plus ORDER BY
// evaluated against the input tuples.
func (ex *executor) execPlain(items []SelectItem, orderBy []OrderItem, rel relation) ([]table.Row, error) {
	out := newOutput(rel.len(), items, orderBy)
	en := env{frame: rel.frame}
	for i := 0; i < rel.len(); i++ {
		en.tuple = rel.tuple(i)
		if err := out.add(&en, items, orderBy); err != nil {
			return nil, err
		}
	}
	return out.rows(len(items), orderBy), nil
}

// group accumulates one GROUP BY bucket.
type group struct {
	rep  []table.Row // representative (first) input tuple
	accs map[string]accumulator
}

// execGrouped handles GROUP BY / aggregate selection.
func (ex *executor) execGrouped(sel *Select, items []SelectItem, orderBy []OrderItem, rel relation, aggCalls []*FuncCall) ([]table.Row, error) {
	// Deduplicate aggregate calls by canonical string.
	uniqueAggs := make(map[string]*FuncCall)
	for _, fc := range aggCalls {
		uniqueAggs[fc.String()] = fc
	}
	newGroup := func(rep []table.Row) (*group, error) {
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
	en := env{frame: rel.frame}
	for i := 0; i < rel.len(); i++ {
		en.tuple = rel.tuple(i)
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
			if grp, err = newGroup(en.tuple); err != nil {
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
	return out.rows(len(items), orderBy), nil
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
		f.cols[i] = execCol{qual: qual, name: c.Name, pos: t.Pos(i)}
	}
	return relation{frame: f, width: 1, rows: t.Stored()}, nil
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
	out.rows = make([]table.Row, 0, left.len()*out.width)
	en := env{frame: combined, tuple: make([]table.Row, out.width)}
	rightPart := en.tuple[left.width:]
	nullRight := right.nullTuple() // LEFT JOIN's padding

	// Hash join: index the right tuples by key, each distinct key heading
	// a chain of the tuples that carry it, in input order.
	hashed := len(leftKeys) > 0
	var index map[string]int // key → its chain
	var heads, tails, next []int
	if hashed {
		index, next = make(map[string]int, right.len()), make([]int, right.len())
	}
	met := make([]keyClass, len(rightKeys)) // per key, every class indexed
	var kb []byte
	cls := make([]keyClass, len(leftKeys))
	ren := env{frame: right.frame}
	for j := 0; hashed && j < right.len(); j++ {
		ren.tuple = right.tuple(j)
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
	for i := 0; i < left.len(); i++ {
		lenv.tuple = left.tuple(i)
		copy(en.tuple, lenv.tuple)
		matched := false
		// try appends left ++ right tuple j when every pred holds on it.
		try := func(j int, preds []Expr) error {
			copy(rightPart, right.tuple(j))
			for _, p := range preds {
				v, err := en.eval(p)
				if err != nil || triOf(v) != triTrue {
					return err
				}
			}
			out.rows = append(out.rows, en.tuple...)
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
			for j := 0; j < right.len() && err == nil; j++ {
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
			out.rows = append(out.rows, en.tuple...)
		}
	}
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
