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

func aliasOther() *table.Table {
	t := table.New(table.Schema{Name: "more", Columns: []table.Column{
		{Name: "who", Type: value.KindString},
		{Name: "id", Type: value.KindInt},
		{Name: "x", Type: value.KindFloat},
	}})
	t.MustAppend(spareRow(value.String("Umbrella"), value.Int(6), value.Float(50)))
	t.MustAppend(spareRow(value.String("Hooli"), value.Int(7), value.Null()))
	return t
}

// TestOpsDoNotMutateInput is the transform half of the row-sharing rule: an
// op may hand back rows of its input, so it must never write one. Every op
// runs against the same input table (and the same right-hand tables), whose
// fingerprints must not move, and every output must equal the rows the
// deep-copying implementation produced.
func TestOpsDoNotMutateInput(t *testing.T) {
	in, right, other := aliasInput(), aliasRight(), aliasOther()
	inWant, rightWant, otherWant := fingerprint(in), fingerprint(right), fingerprint(other)

	cases := []struct {
		name string
		op   Op
		want string // fingerprint of the output; "" when wantErr is set
		// wantErr is a fragment of the expected failure.
		wantErr string
	}{
		{name: "ParseDates/strict", op: ParseDates{Column: "day"}, want: goldenParseDatesStrict},
		{name: "ParseDates/strict-fails", op: ParseDates{Column: "dayish"}, wantErr: `"n.d."`},
		{name: "ParseDates/lenient", op: ParseDates{Column: "dayish", Lenient: true}, want: goldenParseDatesLenient},
		{name: "ToNumber/strict", op: ToNumber{Column: "amt"}, want: goldenToNumberStrict},
		{name: "ToNumber/strict-fails", op: ToNumber{Column: "amtish"}, wantErr: `"unknown"`},
		{name: "ToNumber/lenient", op: ToNumber{Column: "amtish", Lenient: true}, want: goldenToNumberLenient},
		{name: "Derive/fresh", op: Derive{Name: "z", Expr: "x * 2"}, want: goldenDeriveFresh},
		{name: "Derive/fresh-again", op: Derive{Name: "w", Expr: "id + 100"}, want: goldenDeriveFreshAgain},
		{name: "Derive/replace", op: Derive{Name: "x", Expr: "x + id"}, want: goldenDeriveReplace},
		{name: "Rename", op: Rename{From: "who", To: "vendor"}, want: goldenRename},
		{name: "Keep", op: Keep{Columns: []string{"who", "id"}}, want: goldenKeep},
		{name: "Drop", op: Drop{Columns: []string{"day", "dayish", "amt", "amtish", "who"}}, want: goldenDrop},
		{name: "FillNulls/zero", op: FillNulls{Column: "y", Method: FillZero}, want: goldenFillZero},
		{name: "FillNulls/mean", op: FillNulls{Column: "y", Method: FillMean}, want: goldenFillMean},
		{name: "FillNulls/ffill", op: FillNulls{Column: "y", Method: FillForward}, want: goldenFillForward},
		{name: "Interpolate", op: Interpolate{XColumn: "x", YColumn: "y"}, want: goldenInterpolate},
		{name: "FuzzyJoin", op: FuzzyJoin{Right: right, LeftKey: "who", RightKey: "who"}, want: goldenFuzzyJoin},
		{name: "FuzzyJoin/keep-unmatched", op: FuzzyJoin{Right: right, LeftKey: "who", RightKey: "who", KeepUnmatched: true}, want: goldenFuzzyJoinKeep},
		{name: "AppendRows", op: AppendRows{Other: other}, want: goldenAppendRows},
	}

	outs := make([]*table.Table, len(cases))
	for i, tc := range cases {
		out, err := tc.op.Apply(in)
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
		if got := fingerprint(other); got != otherWant {
			t.Fatalf("%s wrote AppendRows.Other\n got:\n%s\nwant:\n%s", tc.name, got, otherWant)
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
	prog := Program{Ops: []Op{
		Rename{From: "who", To: "vendor"},
		ParseDates{Column: "dayish", Lenient: true},
		ToNumber{Column: "amtish", Lenient: true},
		Interpolate{XColumn: "x", YColumn: "y"},
		FillNulls{Column: "amtish", Method: FillZero},
		Derive{Name: "z", Expr: "y * 2"},
		Keep{Columns: []string{"id", "dayish", "amtish", "y", "z", "vendor"}},
	}}
	cur := in
	var stages []*table.Table
	var wants []string
	for _, op := range prog.Ops {
		next, err := op.Apply(cur)
		if err != nil {
			t.Fatalf("%s: %v", op.Describe(), err)
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
			t.Errorf("stage %d (%s) changed after later stages ran\n got:\n%s\nwant:\n%s", i, prog.Ops[i].Describe(), got, wants[i])
		}
	}
}
