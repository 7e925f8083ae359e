package sqlengine

import (
	"fmt"
	"strings"

	"pneuma/internal/table"
	"pneuma/internal/value"
)

// EvalError is a runtime evaluation error. Its message names the offending
// expression and value so the Materializer's repair loop can diagnose it
// (e.g. "value \"March 3, 2021\" is not numeric" points at a format issue).
type EvalError struct {
	Expr string
	Msg  string
}

func (e *EvalError) Error() string {
	if e.Expr == "" {
		return "sql eval error: " + e.Msg
	}
	return fmt.Sprintf("sql eval error in %s: %s", e.Expr, e.Msg)
}

func evalErrf(ex Expr, format string, args ...interface{}) error {
	s := ""
	if ex != nil {
		s = ex.String()
	}
	return &EvalError{Expr: s, Msg: fmt.Sprintf(format, args...)}
}

// execCol is one column of an execution frame, carrying the qualifier it is
// reachable under ("" for derived columns) and where a tuple holds its cell.
type execCol struct {
	qual string // table alias, lower-cased
	name string // column name
	src  int    // which row of the tuple
	pos  int    // position in that row
}

// frame is the schema of the tuples flowing through the executor.
type frame struct {
	cols []execCol
	// refs memoizes resolve per column-reference node, so a statement pays
	// the name scan once per reference rather than once per cell. It lives
	// on the frame, not the node: one node is evaluated against the left,
	// right and combined frames of a join, and one parsed statement may run
	// on engines whose tables order their columns differently. A frame
	// belongs to one execution, so the map needs no lock. Failures are not
	// remembered; they end the statement.
	refs map[*ColumnRef]int
}

// index returns the position ref resolves to in the frame.
func (f *frame) index(ref *ColumnRef) (int, error) {
	if i, ok := f.refs[ref]; ok {
		return i, nil
	}
	i, err := f.resolve(ref.Table, ref.Column)
	if err != nil {
		return 0, err
	}
	if f.refs == nil {
		f.refs = make(map[*ColumnRef]int)
	}
	f.refs[ref] = i
	return i, nil
}

// resolve finds the index of (qual, name). Unqualified names must be
// unambiguous. The error text lists candidates to guide repair.
func (f *frame) resolve(qual, name string) (int, error) {
	qual = strings.ToLower(qual)
	found := -1
	for i, c := range f.cols {
		if !strings.EqualFold(c.name, name) {
			continue
		}
		if qual != "" && c.qual != qual {
			continue
		}
		if found >= 0 {
			return 0, &EvalError{Expr: name, Msg: fmt.Sprintf(
				"column reference %q is ambiguous (qualify it, e.g. %s.%s or %s.%s)",
				name, f.cols[found].qual, name, c.qual, name)}
		}
		found = i
	}
	if found < 0 {
		ref := name
		if qual != "" {
			ref = qual + "." + name
		}
		return 0, &EvalError{Expr: ref, Msg: fmt.Sprintf(
			"column %q does not exist; available columns: %s", ref, f.describe())}
	}
	return found, nil
}

func (f *frame) describe() string {
	names := make([]string, 0, len(f.cols))
	for _, c := range f.cols {
		if c.qual != "" {
			names = append(names, c.qual+"."+c.name)
		} else {
			names = append(names, c.name)
		}
	}
	if len(names) > 24 {
		names = append(names[:24], "...")
	}
	return strings.Join(names, ", ")
}

// env is the evaluation context for one tuple: the frame, the tuple's source
// rows, and an optional aggregate lookup used while evaluating grouped select
// lists.
type env struct {
	frame *frame
	tuple []table.Row
	// aggs maps FuncCall.String() of aggregate calls to the per-group value.
	aggs map[string]value.Value
}

// tri is SQL three-valued logic.
type tri int

const (
	triFalse tri = iota
	triTrue
	triNull
)

func triOf(v value.Value) tri {
	if v.IsNull() {
		return triNull
	}
	if b, ok := v.AsBool(); ok && b {
		return triTrue
	}
	return triFalse
}

func (t tri) value() value.Value {
	switch t {
	case triTrue:
		return value.Bool(true)
	case triFalse:
		return value.Bool(false)
	default:
		return value.Null()
	}
}

// eval evaluates e in the environment.
func (en *env) eval(e Expr) (value.Value, error) {
	switch ex := e.(type) {
	case *Literal:
		return ex.Val, nil

	case *ColumnRef:
		i, err := en.frame.index(ex)
		if err != nil {
			return value.Null(), err
		}
		c := &en.frame.cols[i]
		return en.tuple[c.src][c.pos], nil

	case *Star:
		return value.Null(), evalErrf(ex, "* is only valid in a select list or COUNT(*)")

	case *Unary:
		return en.evalUnary(ex)

	case *Binary:
		return en.evalBinary(ex)

	case *Between:
		v, err := en.eval(ex.Expr)
		if err != nil {
			return value.Null(), err
		}
		lo, err := en.eval(ex.Lo)
		if err != nil {
			return value.Null(), err
		}
		hi, err := en.eval(ex.Hi)
		if err != nil {
			return value.Null(), err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return value.Null(), nil
		}
		in := value.Compare(v, lo) >= 0 && value.Compare(v, hi) <= 0
		if ex.Not {
			in = !in
		}
		return value.Bool(in), nil

	case *InList:
		v, err := en.eval(ex.Expr)
		if err != nil {
			return value.Null(), err
		}
		if v.IsNull() {
			return value.Null(), nil
		}
		sawNull := false
		for _, item := range ex.Items {
			iv, err := en.eval(item)
			if err != nil {
				return value.Null(), err
			}
			if iv.IsNull() {
				sawNull = true
				continue
			}
			if value.Equal(v, iv) {
				return value.Bool(!ex.Not), nil
			}
		}
		if sawNull {
			return value.Null(), nil
		}
		return value.Bool(ex.Not), nil

	case *IsNull:
		v, err := en.eval(ex.Expr)
		if err != nil {
			return value.Null(), err
		}
		return value.Bool(v.IsNull() != ex.Not), nil

	case *FuncCall:
		return en.evalFunc(ex)

	case *CaseExpr:
		return en.evalCase(ex)

	case *CastExpr:
		v, err := en.eval(ex.Expr)
		if err != nil {
			return value.Null(), err
		}
		out, ok := value.CoerceKind(v, ex.Type)
		if !ok {
			return value.Null(), evalErrf(ex, "cannot cast %q to %s", v.String(), ex.Type)
		}
		return out, nil

	default:
		return value.Null(), evalErrf(e, "unsupported expression node %T", e)
	}
}

func (en *env) evalUnary(ex *Unary) (value.Value, error) {
	v, err := en.eval(ex.Expr)
	if err != nil {
		return value.Null(), err
	}
	switch ex.Op {
	case "NOT":
		switch triOf(v) {
		case triTrue:
			return value.Bool(false), nil
		case triFalse:
			return value.Bool(true), nil
		default:
			return value.Null(), nil
		}
	case "-":
		if v.IsNull() {
			return value.Null(), nil
		}
		if v.Kind() == value.KindInt {
			return value.Int(-v.IntVal()), nil
		}
		f, ok := v.AsFloat()
		if !ok {
			return value.Null(), evalErrf(ex, "value %q is not numeric", v.String())
		}
		return value.Float(-f), nil
	}
	return value.Null(), evalErrf(ex, "unknown unary operator %q", ex.Op)
}

func (en *env) evalBinary(ex *Binary) (value.Value, error) {
	switch ex.Op {
	case "AND", "OR":
		l, err := en.eval(ex.Left)
		if err != nil {
			return value.Null(), err
		}
		lt := triOf(l)
		if ex.Op == "AND" && lt == triFalse {
			return value.Bool(false), nil
		}
		if ex.Op == "OR" && lt == triTrue {
			return value.Bool(true), nil
		}
		r, err := en.eval(ex.Right)
		if err != nil {
			return value.Null(), err
		}
		rt := triOf(r)
		if ex.Op == "AND" {
			switch {
			case rt == triFalse:
				return value.Bool(false), nil
			case lt == triTrue && rt == triTrue:
				return value.Bool(true), nil
			default:
				return value.Null(), nil
			}
		}
		switch {
		case rt == triTrue:
			return value.Bool(true), nil
		case lt == triFalse && rt == triFalse:
			return value.Bool(false), nil
		default:
			return value.Null(), nil
		}
	}

	l, err := en.eval(ex.Left)
	if err != nil {
		return value.Null(), err
	}
	r, err := en.eval(ex.Right)
	if err != nil {
		return value.Null(), err
	}

	switch ex.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return value.Null(), nil
		}
		c := value.Compare(l, r)
		var b bool
		switch ex.Op {
		case "=":
			b = c == 0
		case "<>":
			b = c != 0
		case "<":
			b = c < 0
		case "<=":
			b = c <= 0
		case ">":
			b = c > 0
		case ">=":
			b = c >= 0
		}
		return value.Bool(b), nil

	case "||":
		if l.IsNull() || r.IsNull() {
			return value.Null(), nil
		}
		return value.String(l.String() + r.String()), nil

	case "LIKE":
		if l.IsNull() || r.IsNull() {
			return value.Null(), nil
		}
		return value.Bool(likeMatch(l.String(), r.String())), nil

	case "+", "-", "*", "/", "%":
		return en.arith(ex, l, r)
	}
	return value.Null(), evalErrf(ex, "unknown operator %q", ex.Op)
}

func (en *env) arith(ex *Binary, l, r value.Value) (value.Value, error) {
	if l.IsNull() || r.IsNull() {
		return value.Null(), nil
	}
	lf, lok := l.AsFloat()
	rf, rok := r.AsFloat()
	if !lok {
		return value.Null(), evalErrf(ex, "value %q is not numeric", l.String())
	}
	if !rok {
		return value.Null(), evalErrf(ex, "value %q is not numeric", r.String())
	}
	bothInt := l.Kind() == value.KindInt && r.Kind() == value.KindInt
	switch ex.Op {
	case "+":
		if bothInt {
			return value.Int(l.IntVal() + r.IntVal()), nil
		}
		return value.Float(lf + rf), nil
	case "-":
		if bothInt {
			return value.Int(l.IntVal() - r.IntVal()), nil
		}
		return value.Float(lf - rf), nil
	case "*":
		if bothInt {
			return value.Int(l.IntVal() * r.IntVal()), nil
		}
		return value.Float(lf * rf), nil
	case "/":
		if rf == 0 {
			return value.Null(), evalErrf(ex, "division by zero")
		}
		return value.Float(lf / rf), nil
	case "%":
		ri := int64(rf)
		if ri == 0 {
			return value.Null(), evalErrf(ex, "modulo by zero")
		}
		return value.Int(int64(lf) % ri), nil
	}
	return value.Null(), evalErrf(ex, "unknown arithmetic operator %q", ex.Op)
}

func (en *env) evalFunc(ex *FuncCall) (value.Value, error) {
	// Aggregates are computed by the grouping executor and injected via the
	// env's aggs map keyed by the call's canonical string.
	if isAggregate(ex.Name) {
		if en.aggs == nil {
			return value.Null(), evalErrf(ex, "aggregate %s is not allowed here (only in SELECT list or HAVING of a grouped query)", ex.Name)
		}
		v, ok := en.aggs[ex.String()]
		if !ok {
			return value.Null(), evalErrf(ex, "internal: aggregate %s was not precomputed", ex.String())
		}
		return v, nil
	}
	fn, ok := lookupFunc(ex.Name)
	if !ok {
		return value.Null(), evalErrf(ex, "unknown function %s (known: %s)", ex.Name, funcNamesHint())
	}
	args := make([]value.Value, len(ex.Args))
	for i, a := range ex.Args {
		v, err := en.eval(a)
		if err != nil {
			return value.Null(), err
		}
		args[i] = v
	}
	out, err := fn(args)
	if err != nil {
		return value.Null(), evalErrf(ex, "%s", err.Error())
	}
	return out, nil
}

func (en *env) evalCase(ex *CaseExpr) (value.Value, error) {
	if ex.Operand != nil {
		op, err := en.eval(ex.Operand)
		if err != nil {
			return value.Null(), err
		}
		for _, w := range ex.Whens {
			wv, err := en.eval(w.Cond)
			if err != nil {
				return value.Null(), err
			}
			if !op.IsNull() && !wv.IsNull() && value.Equal(op, wv) {
				return en.eval(w.Result)
			}
		}
	} else {
		for _, w := range ex.Whens {
			cv, err := en.eval(w.Cond)
			if err != nil {
				return value.Null(), err
			}
			if triOf(cv) == triTrue {
				return en.eval(w.Result)
			}
		}
	}
	if ex.Else != nil {
		return en.eval(ex.Else)
	}
	return value.Null(), nil
}

// likeMatch implements SQL LIKE with % and _ wildcards, case-insensitive
// (matching DuckDB's ILIKE-ish behaviour that users generally expect from a
// data-prep tool).
func likeMatch(s, pattern string) bool {
	return likeRec(strings.ToLower(s), strings.ToLower(pattern))
}

func likeRec(s, p string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			// Collapse consecutive %.
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(s[i:], p) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, p = s[1:], p[1:]
		default:
			if len(s) == 0 || s[0] != p[0] {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return len(s) == 0
}

// collectAggregates walks e and appends every aggregate FuncCall found.
// Aggregates nested inside aggregates are rejected.
func collectAggregates(e Expr, out *[]*FuncCall) error {
	switch ex := e.(type) {
	case nil, *Literal, *ColumnRef, *Star:
		return nil
	case *Unary:
		return collectAggregates(ex.Expr, out)
	case *Binary:
		if err := collectAggregates(ex.Left, out); err != nil {
			return err
		}
		return collectAggregates(ex.Right, out)
	case *Between:
		for _, sub := range []Expr{ex.Expr, ex.Lo, ex.Hi} {
			if err := collectAggregates(sub, out); err != nil {
				return err
			}
		}
		return nil
	case *InList:
		if err := collectAggregates(ex.Expr, out); err != nil {
			return err
		}
		for _, it := range ex.Items {
			if err := collectAggregates(it, out); err != nil {
				return err
			}
		}
		return nil
	case *IsNull:
		return collectAggregates(ex.Expr, out)
	case *FuncCall:
		if isAggregate(ex.Name) {
			var inner []*FuncCall
			for _, a := range ex.Args {
				if err := collectAggregates(a, &inner); err != nil {
					return err
				}
			}
			if len(inner) > 0 {
				return evalErrf(ex, "nested aggregate functions are not allowed")
			}
			*out = append(*out, ex)
			return nil
		}
		for _, a := range ex.Args {
			if err := collectAggregates(a, out); err != nil {
				return err
			}
		}
		return nil
	case *CaseExpr:
		if err := collectAggregates(ex.Operand, out); err != nil {
			return err
		}
		for _, w := range ex.Whens {
			if err := collectAggregates(w.Cond, out); err != nil {
				return err
			}
			if err := collectAggregates(w.Result, out); err != nil {
				return err
			}
		}
		return collectAggregates(ex.Else, out)
	case *CastExpr:
		return collectAggregates(ex.Expr, out)
	default:
		return evalErrf(e, "unsupported expression node %T", e)
	}
}
