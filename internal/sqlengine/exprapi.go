package sqlengine

import (
	"pneuma/internal/table"
	"pneuma/internal/value"
)

// ParseExpr parses a standalone SQL expression (no SELECT wrapper). The
// transform toolkit uses it for derived-column formulas.
func ParseExpr(src string) (Expr, error) {
	tokens, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{tokens: tokens}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errorf("unexpected %s after expression", p.peek())
	}
	return e, nil
}

// BindRow binds e to t's columns, unqualified, and returns its evaluation
// on row r of t, reading each column's vector; each column name is
// resolved once, on first use, not once per row. Aggregates are not allowed
// in e. The returned function is not safe for concurrent use.
func BindRow(e Expr, t *table.Table) func(r int) (value.Value, error) {
	f := &frame{cols: make([]execCol, len(t.Schema.Columns))}
	for i, c := range t.Schema.Columns {
		f.cols[i] = execCol{name: c.Name, vec: t.Vector(i)}
	}
	en := env{frame: f, tuple: make([]int32, 1)}
	return func(r int) (value.Value, error) {
		en.tuple[0] = int32(r)
		return en.eval(e)
	}
}
