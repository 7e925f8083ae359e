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

// EvalOnRow evaluates an expression against one row of a table, resolving
// unqualified column names against the table's schema. Aggregates are not
// allowed here.
func EvalOnRow(e Expr, t *table.Table, row table.Row) (value.Value, error) {
	f := &frame{}
	for _, c := range t.Schema.Columns {
		f.cols = append(f.cols, execCol{qual: "", name: c.Name})
	}
	en := &env{frame: f, row: row}
	return en.eval(e)
}
