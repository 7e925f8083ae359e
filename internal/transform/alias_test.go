package transform

import (
	"fmt"
	"strings"
	"testing"

	"pneuma/internal/table"
	"pneuma/internal/value"
)

// fingerprint renders everything an op could change about a table: schema
// name, column names and types, and every cell's kind and text.
func fingerprint(t *table.Table) string {
	var b strings.Builder
	b.WriteString(t.Schema.Name)
	for _, c := range t.Schema.Columns {
		fmt.Fprintf(&b, " %s:%s", c.Name, c.Type)
	}
	for _, row := range t.Rows {
		b.WriteString("\n")
		for i, v := range row {
			if i > 0 {
				b.WriteString(" | ")
			}
			fmt.Fprintf(&b, "%s:%s", v.Kind(), v.String())
		}
	}
	return b.String()
}

// spareRow builds a row whose backing array has room to grow, so an op that
// appends onto a shared row (instead of building its own) scribbles where a
// second op over the same input will also write.
func spareRow(vals ...value.Value) table.Row {
	r := make(table.Row, len(vals), len(vals)+4)
	copy(r, vals)
	return r
}

func aliasInput() *table.Table {
	s, f, i, null := value.String, value.Float, value.Int, value.Null()
	return mkTable(
		[]table.Column{
			{Name: "id", Type: value.KindInt},
			{Name: "day", Type: value.KindString},
			{Name: "dayish", Type: value.KindString},
			{Name: "amt", Type: value.KindString},
			{Name: "amtish", Type: value.KindString},
			{Name: "x", Type: value.KindFloat},
			{Name: "y", Type: value.KindFloat},
			{Name: "who", Type: value.KindString},
		},
		spareRow(i(1), s("2020-01-15"), s("2020-01-15"), s("1,200.50"), s("$99"), f(0), f(10), s("ACME GmbH")),
		spareRow(i(2), s("March 5, 2021"), s("n.d."), s("45%"), s("unknown"), f(10), null, s("supplier-12")),
		spareRow(i(3), null, null, null, null, f(20), f(30), s("Globex")),
		spareRow(i(4), s("2021/07/04"), s("07/04/2021"), s("12.5 ppm"), s("7"), f(30), null, s("nobody")),
		spareRow(i(5), s("2022-02-02"), s("soon"), s("3"), s("8 USD"), f(40), f(50), s("Initech")),
	)
}

func aliasRight() *table.Table {
	t := table.New(table.Schema{Name: "vendors", Columns: []table.Column{
		{Name: "who", Type: value.KindString},
		{Name: "tier", Type: value.KindInt},
	}})
	t.MustAppend(spareRow(value.String("Acme"), value.Int(1)))
	t.MustAppend(spareRow(value.String("supplier 12"), value.Int(2)))
	t.MustAppend(spareRow(value.String("initech"), value.Int(3)))
	return t
}

// TestOpsDoNotMutateInput is the transform half of the row-sharing rule: an
// op may hand back rows of its input, so it must never write one. Every op
// runs against the same input table (and the same right-hand tables), whose
// fingerprints must not move, and every output must equal the rows the
// deep-copying implementation produced.
func TestOpsDoNotMutateInput(t *testing.T) {
	in, right := aliasInput(), aliasRight()
	inWant, rightWant := fingerprint(in), fingerprint(right)

	cases := []struct {
		name  string
		apply func(*table.Table) (*table.Table, error)
		want  string // fingerprint of the output; "" when wantErr is set
		// wantErr is a fragment of the expected failure.
		wantErr string
	}{
		{name: "ParseDates/strict", apply: ParseDates{Column: "day"}.Apply, want: goldenParseDatesStrict},
		{name: "ParseDates/strict-fails", apply: ParseDates{Column: "dayish"}.Apply, wantErr: `"n.d."`},
		{name: "ParseDates/lenient", apply: ParseDates{Column: "dayish", Lenient: true}.Apply, want: goldenParseDatesLenient},
		{name: "ToNumber/strict", apply: ToNumber{Column: "amt"}.Apply, want: goldenToNumberStrict},
		{name: "ToNumber/strict-fails", apply: ToNumber{Column: "amtish"}.Apply, wantErr: `"unknown"`},
		{name: "ToNumber/lenient", apply: ToNumber{Column: "amtish", Lenient: true}.Apply, want: goldenToNumberLenient},
		{name: "Derive/fresh", apply: Derive{Name: "z", Expr: "x * 2"}.Apply, want: goldenDeriveFresh},
		{name: "Derive/fresh-again", apply: Derive{Name: "w", Expr: "id + 100"}.Apply, want: goldenDeriveFreshAgain},
		{name: "Derive/replace", apply: Derive{Name: "x", Expr: "x + id"}.Apply, want: goldenDeriveReplace},
		{name: "Keep", apply: Keep{Columns: []string{"who", "id"}}.Apply, want: goldenKeep},
		{name: "Interpolate", apply: Interpolate{XColumn: "x", YColumn: "y"}.Apply, want: goldenInterpolate},
		{name: "FuzzyJoin", apply: FuzzyJoin{Right: right, LeftKey: "who", RightKey: "who"}.Apply, want: goldenFuzzyJoin},
	}

	outs := make([]*table.Table, len(cases))
	for i, tc := range cases {
		out, err := tc.apply(in)
		switch {
		case tc.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want one naming %s", tc.name, err, tc.wantErr)
			}
		case err != nil:
			t.Errorf("%s: %v", tc.name, err)
		default:
			outs[i] = out
			if got := fingerprint(out); got != tc.want {
				t.Errorf("%s: output differs from the golden rows\n got:\n%s\nwant:\n%s", tc.name, got, tc.want)
			}
		}
		if got := fingerprint(in); got != inWant {
			t.Fatalf("%s wrote its input\n got:\n%s\nwant:\n%s", tc.name, got, inWant)
		}
		if got := fingerprint(right); got != rightWant {
			t.Fatalf("%s wrote FuzzyJoin.Right\n got:\n%s\nwant:\n%s", tc.name, got, rightWant)
		}
	}

	// Outputs share rows with the input and so, possibly, with each other:
	// a later op must not have reached into an earlier op's result.
	for i, tc := range cases {
		if outs[i] == nil {
			continue
		}
		if got := fingerprint(outs[i]); got != tc.want {
			t.Errorf("%s: output changed after later ops ran over the same input\n got:\n%s\nwant:\n%s", tc.name, got, tc.want)
		}
	}
}

// TestOpsChainOverSharedRows runs ops back to back, each over the previous
// one's output, which is where a row shared three tables deep gets written if
// any op forgets the rule.
func TestOpsChainOverSharedRows(t *testing.T) {
	in := aliasInput()
	inWant := fingerprint(in)
	ops := []struct {
		name  string
		apply func(*table.Table) (*table.Table, error)
	}{
		{"ParseDates", ParseDates{Column: "dayish", Lenient: true}.Apply},
		{"ToNumber", ToNumber{Column: "amtish", Lenient: true}.Apply},
		{"Interpolate", Interpolate{XColumn: "x", YColumn: "y"}.Apply},
		{"Derive", Derive{Name: "z", Expr: "y * 2"}.Apply},
		{"Keep", Keep{Columns: []string{"id", "dayish", "amtish", "y", "z", "who"}}.Apply},
	}
	cur := in
	var stages []*table.Table
	var wants []string
	for _, op := range ops {
		next, err := op.apply(cur)
		if err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		stages = append(stages, next)
		wants = append(wants, fingerprint(next))
		cur = next
	}
	if got := fingerprint(cur); got != goldenChain {
		t.Errorf("chain output differs from the golden rows\n got:\n%s\nwant:\n%s", got, goldenChain)
	}
	if got := fingerprint(in); got != inWant {
		t.Errorf("the chain wrote its input\n got:\n%s\nwant:\n%s", got, inWant)
	}
	for i, st := range stages {
		if got := fingerprint(st); got != wants[i] {
			t.Errorf("stage %d (%s) changed after later stages ran\n got:\n%s\nwant:\n%s", i, ops[i].name, got, wants[i])
		}
	}
}
