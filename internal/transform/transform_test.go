package transform

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"pneuma/internal/racebuild"
	"pneuma/internal/table"
	"pneuma/internal/value"
)

func mkTable(cols []table.Column, rows ...table.Row) *table.Table {
	t := table.New(table.Schema{Name: "t", Columns: cols})
	for _, r := range rows {
		t.MustAppend(r)
	}
	return t
}

func TestParseDates(t *testing.T) {
	in := mkTable(
		[]table.Column{{Name: "d", Type: value.KindString}},
		table.Row{value.String("2020-01-15")},
		table.Row{value.String("March 5, 2021")},
		table.Row{value.Null()},
	)
	out, err := ParseDates{Column: "d"}.Apply(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema.Columns[0].Type != value.KindTime {
		t.Errorf("type = %v, want time", out.Schema.Columns[0].Type)
	}
	if out.At(1, 0).TimeVal().Year() != 2021 {
		t.Errorf("parsed year = %v", out.At(1, 0))
	}
	if !out.At(2, 0).IsNull() {
		t.Error("null must stay null")
	}
	// Input must not be mutated.
	if in.At(0, 0).Kind() != value.KindString {
		t.Error("ParseDates mutated its input")
	}
}

func TestParseDatesStrictFailsWithSamples(t *testing.T) {
	in := mkTable(
		[]table.Column{{Name: "d", Type: value.KindString}},
		table.Row{value.String("2020-01-15")},
		table.Row{value.String("n.d.")},
	)
	_, err := ParseDates{Column: "d"}.Apply(in)
	if err == nil || !strings.Contains(err.Error(), "n.d.") {
		t.Fatalf("err = %v, want failure naming the bad value", err)
	}
	// Lenient mode nulls the bad values instead.
	out, err := ParseDates{Column: "d", Lenient: true}.Apply(in)
	if err != nil {
		t.Fatal(err)
	}
	if !out.At(1, 0).IsNull() {
		t.Error("lenient parse should null the bad value")
	}
}

func TestToNumber(t *testing.T) {
	in := mkTable(
		[]table.Column{{Name: "v", Type: value.KindString}},
		table.Row{value.String("1,200.50")},
		table.Row{value.String("$99")},
		table.Row{value.String("45%")},
		table.Row{value.String("12.5 ppm")},
	)
	out, err := ToNumber{Column: "v"}.Apply(in)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1200.50, 99, 0.45, 12.5}
	for i, w := range want {
		if got := out.At(i, 0).FloatVal(); got != w {
			t.Errorf("row %d = %v, want %v", i, got, w)
		}
	}
	// Strict failure on text.
	bad := mkTable([]table.Column{{Name: "v", Type: value.KindString}},
		table.Row{value.String("unknown")})
	if _, err := (ToNumber{Column: "v"}).Apply(bad); err == nil {
		t.Fatal("strict ToNumber should fail on text")
	}
}

func TestDerive(t *testing.T) {
	in := mkTable(
		[]table.Column{
			{Name: "price", Type: value.KindFloat},
			{Name: "tariff", Type: value.KindFloat},
		},
		table.Row{value.Float(100), value.Float(0.10)},
	)
	out, err := Derive{Name: "adjusted", Expr: "price * (1 + tariff)"}.Apply(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.At(0, out.Schema.ColumnIndex("adjusted")).FloatVal(); math.Abs(got-110) > 1e-9 {
		t.Errorf("adjusted = %v, want 110", got)
	}
	// Bad expression errors cleanly.
	if _, err := (Derive{Name: "x", Expr: "price +* 2"}).Apply(in); err == nil {
		t.Fatal("bad expression must error")
	}
	// Unknown column in expression errors with candidates.
	_, err = Derive{Name: "x", Expr: "missing_col * 2"}.Apply(in)
	if err == nil || !strings.Contains(err.Error(), "does not exist") {
		t.Fatalf("err = %v", err)
	}
}

func TestRenameKeepDrop(t *testing.T) {
	in := mkTable(
		[]table.Column{
			{Name: "a", Type: value.KindInt},
			{Name: "b", Type: value.KindInt},
			{Name: "c", Type: value.KindInt},
		},
		table.Row{value.Int(1), value.Int(2), value.Int(3)},
	)
	out, err := Keep{Columns: []string{"c", "a"}}.Apply(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumCols() != 2 || out.Schema.Columns[0].Name != "c" {
		t.Fatalf("keep wrong: %v", out.Schema)
	}
	if out.At(0, 0).IntVal() != 3 {
		t.Fatalf("keep values wrong: %v", out.Row(0))
	}
	// Missing columns error with a did-you-mean hint.
	_, err = Keep{Columns: []string{"aa"}}.Apply(in)
	if err == nil || !strings.Contains(err.Error(), "did you mean") {
		t.Fatalf("err = %v, want did-you-mean", err)
	}
}

func TestInterpolate(t *testing.T) {
	in := mkTable(
		[]table.Column{
			{Name: "x", Type: value.KindInt},
			{Name: "y", Type: value.KindFloat},
		},
		table.Row{value.Int(0), value.Float(0)},
		table.Row{value.Int(10), value.Null()},
		table.Row{value.Int(20), value.Float(20)},
		table.Row{value.Int(30), value.Null()}, // outside anchors? no: below max
		table.Row{value.Int(40), value.Float(40)},
		table.Row{value.Int(50), value.Null()}, // beyond last anchor: stays null
	)
	out, err := Interpolate{XColumn: "x", YColumn: "y"}.Apply(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.At(1, 1).FloatVal(); got != 10 {
		t.Errorf("interp@10 = %v, want 10", got)
	}
	if got := out.At(3, 1).FloatVal(); got != 30 {
		t.Errorf("interp@30 = %v, want 30", got)
	}
	if !out.At(5, 1).IsNull() {
		t.Error("value beyond the last anchor must stay null")
	}
}

func TestInterpolateNeedsTwoAnchors(t *testing.T) {
	in := mkTable(
		[]table.Column{
			{Name: "x", Type: value.KindInt},
			{Name: "y", Type: value.KindFloat},
		},
		table.Row{value.Int(0), value.Float(1)},
		table.Row{value.Int(1), value.Null()},
	)
	_, err := Interpolate{XColumn: "x", YColumn: "y"}.Apply(in)
	if err == nil || !strings.Contains(err.Error(), "at least 2") {
		t.Fatalf("err = %v", err)
	}
}

func TestInterpolateAt(t *testing.T) {
	xs := []float64{0, 10, 20}
	ys := []float64{0, 100, 200}
	if v, _ := InterpolateAt(xs, ys, 5); v != 50 {
		t.Errorf("interp@5 = %v", v)
	}
	if v, _ := InterpolateAt(xs, ys, -5); v != 0 {
		t.Errorf("clamp low = %v", v)
	}
	if v, _ := InterpolateAt(xs, ys, 50); v != 200 {
		t.Errorf("clamp high = %v", v)
	}
	if _, err := InterpolateAt(nil, nil, 1); err == nil {
		t.Error("empty input must error")
	}
}

func TestInterpolateAtProperty(t *testing.T) {
	// Interpolated values stay within [min(y), max(y)] for in-range x.
	f := func(raw [6]float64, at float64) bool {
		xs := []float64{0, 1, 2, 3, 4, 5}
		ys := make([]float64, 6)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, v := range raw {
			y := math.Mod(math.Abs(v), 1000)
			if math.IsNaN(y) {
				y = 0
			}
			ys[i] = y
			if y < lo {
				lo = y
			}
			if y > hi {
				hi = y
			}
		}
		p := math.Mod(math.Abs(at), 5)
		if math.IsNaN(p) {
			p = 0
		}
		v, err := InterpolateAt(xs, ys, p)
		return err == nil && v >= lo-1e-9 && v <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFuzzyJoin(t *testing.T) {
	left := mkTable(
		[]table.Column{
			{Name: "supplier", Type: value.KindString},
			{Name: "price", Type: value.KindFloat},
		},
		table.Row{value.String("ACME GmbH"), value.Float(10)},
		table.Row{value.String("Orion SARL"), value.Float(20)},
		table.Row{value.String("Nowhere Corp"), value.Float(30)},
	)
	right := mkTable(
		[]table.Column{
			{Name: "name", Type: value.KindString},
			{Name: "country", Type: value.KindString},
		},
		table.Row{value.String("Acme GmbH."), value.String("Germany")},
		table.Row{value.String("ORION sarl"), value.String("France")},
	)
	out, err := FuzzyJoin{Right: right, LeftKey: "supplier", RightKey: "name"}.Apply(left)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2 (Nowhere Corp unmatched)", out.NumRows())
	}
	if got := out.At(0, out.Schema.ColumnIndex("country")); got.StringVal() != "Germany" {
		t.Errorf("join country = %v", got)
	}
}

// TestInterpolateRepeatedX pins Interpolate over repeated and NaN X values,
// across more rows than one block of the stable sort: ties on X keep row
// order, and that order picks which anchor a NULL between equal X values
// takes its Y from. The expected column was recorded from the
// sort.SliceStable implementation.
func TestInterpolateRepeatedX(t *testing.T) {
	var rows []table.Row
	for i := 0; i < 53; i++ {
		x := value.Float(float64((i * 5) % 9))
		if i%17 == 4 {
			x = value.String("NaN")
		}
		y := value.Float(float64(i))
		if i%3 != 0 {
			y = value.Null()
		}
		rows = append(rows, table.Row{x, y})
	}
	in := mkTable([]table.Column{{Name: "x", Type: value.KindFloat}, {Name: "y", Type: value.KindFloat}}, rows...)
	out, err := Interpolate{XColumn: "x", YColumn: "y"}.Apply(in)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for r := range out.NumRows() {
		fmt.Fprintf(&b, "%s ", out.At(r, 1).String())
	}
	const want = "0 25 32 3   6  38 9 25 32 12 19  15  38 18 25 32 21 19  24  38 27 25 32 30 19  33  38 36 25  39 19  42  38 45 25 32 48 19  51  "
	if got := b.String(); got != want {
		t.Errorf("interpolated y column\n got: %s\nwant: %s", got, want)
	}
}

// keepInput builds an n-row, four-column table.
func keepInput(n int) *table.Table {
	cols := []table.Column{{Name: "a", Type: value.KindInt}, {Name: "b", Type: value.KindString}, {Name: "c", Type: value.KindFloat}, {Name: "d", Type: value.KindString}}
	rows := make([]table.Row, n)
	for i := range rows {
		rows[i] = table.Row{value.Int(int64(i)), value.String(fmt.Sprint("b", i%13)), value.Float(float64(i) / 4), value.String("d")}
	}
	return table.FromRows(table.Schema{Name: "t", Columns: cols}, rows)
}

// TestKeepAllocsFlatInRows: a Keep is a header edit, so what it allocates
// does not grow with the rows it keeps.
func TestKeepAllocsFlatInRows(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	keep := Keep{Columns: []string{"c", "a", "d"}}
	small, large := keepInput(10), keepInput(10_000)
	for _, profiled := range []bool{false, true} {
		if profiled {
			small.BuildProfile()
			large.BuildProfile()
		}
		s := testing.AllocsPerRun(50, func() { keep.Apply(small) })
		l := testing.AllocsPerRun(50, func() { keep.Apply(large) })
		if s != l {
			t.Errorf("profiled=%v: Keep allocates %v times over 10 rows, %v over 10 000", profiled, s, l)
		}
	}
}

// TestKeepCarriesProfile: a Keep of a profiled table reads no row — its
// profile is published with it — and that profile equals a cold
// BuildProfile of a deep-copied projection, field by field.
func TestKeepCarriesProfile(t *testing.T) {
	in := keepInput(500)
	in.BuildProfile()
	out, err := Keep{Columns: []string{"d", "c", "b", "c"}}.Apply(in)
	if err != nil {
		t.Fatal(err)
	}
	if !racebuild.Enabled {
		if n := testing.AllocsPerRun(3, func() { out.BuildProfile() }); n != 0 {
			t.Errorf("profiling a Keep of a profiled table allocates %v times: it read the rows", n)
		}
	}
	got, want := out.BuildProfile(), out.Clone().BuildProfile()
	if len(got.Columns) != len(want.Columns) {
		t.Fatalf("%d column stats, want %d", len(got.Columns), len(want.Columns))
	}
	for c, w := range want.Columns {
		g := got.Columns[c]
		if g.Min != w.Min || g.Max != w.Max || !slices.Equal(g.SampleValues, w.SampleValues) {
			t.Errorf("column %d: %+v, want %+v", c, g, w)
		}
	}
}
