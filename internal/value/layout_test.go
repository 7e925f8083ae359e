package value

import (
	"math"
	"strconv"
	"testing"
	"time"
	"unsafe"

	"pneuma/internal/racebuild"
)

// TestValueIs32Bytes pins the cell size. Every cell of every table is a
// Value, so heap_mb on the seeker-turns benchmark is (cells held) × this
// number: the 64-byte layout it replaced held 315 MB where this one holds
// 157. A field added here is paid for by every row copy of every turn.
func TestValueIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
	if !(Value{}).IsNull() || Compare(Value{}, Null()) != 0 {
		t.Fatal("Value{} must be NULL")
	}
}

func TestIntRoundTrip(t *testing.T) {
	for _, i := range []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64} {
		v := Int(i)
		if v.Kind() != KindInt || v.IntVal() != i {
			t.Errorf("Int(%d).IntVal() = %d (kind %v)", i, v.IntVal(), v.Kind())
		}
		if got, ok := v.AsInt(); !ok || got != i {
			t.Errorf("Int(%d).AsInt() = %d, %v", i, got, ok)
		}
		if got, want := v.String(), strconv.FormatInt(i, 10); got != want {
			t.Errorf("Int(%d).String() = %q, want %q", i, got, want)
		}
		if got, ok := v.AsFloat(); !ok || got != float64(i) {
			t.Errorf("Int(%d).AsFloat() = %v, %v", i, got, ok)
		}
		if v.BoolVal() || v.StringVal() != "" || !v.TimeVal().IsZero() {
			t.Errorf("Int(%d) answers as another kind", i)
		}
	}
	if Compare(Int(math.MinInt64), Int(math.MaxInt64)) != -1 || Compare(Int(math.MaxInt64), Int(math.MaxInt64)) != 0 {
		t.Error("Compare misorders the int64 extremes")
	}
}

func TestFloatRoundTrip(t *testing.T) {
	negZero := math.Copysign(0, -1)
	subnormal := math.SmallestNonzeroFloat64
	for _, f := range []float64{0, negZero, subnormal, -subnormal, 1.5, -math.MaxFloat64, math.MaxFloat64, math.Inf(1), math.Inf(-1)} {
		v := Float(f)
		if v.Kind() != KindFloat || math.Float64bits(v.FloatVal()) != math.Float64bits(f) {
			t.Errorf("Float(%v).FloatVal() = %v (kind %v)", f, v.FloatVal(), v.Kind())
		}
		if got, ok := v.AsFloat(); !ok || math.Float64bits(got) != math.Float64bits(f) {
			t.Errorf("Float(%v).AsFloat() = %v, %v", f, got, ok)
		}
		if got, want := v.String(), strconv.FormatFloat(f, 'g', -1, 64); got != want {
			t.Errorf("Float(%v).String() = %q, want %q", f, got, want)
		}
	}
	if zero, neg := Float(0).String(), Float(negZero).String(); zero != "0" || neg != "-0" {
		t.Errorf("0 and -0 render %q and %q, want them distinct", zero, neg)
	}
	if Compare(Float(negZero), Float(0)) != 0 {
		t.Error("-0 and 0 must compare equal")
	}
	if Compare(Float(math.Inf(-1)), Float(-math.MaxFloat64)) != -1 || Compare(Float(math.Inf(1)), Float(math.MaxFloat64)) != 1 {
		t.Error("Compare misorders the infinities")
	}
	if Compare(Float(subnormal), Float(0)) != 1 || Compare(Float(subnormal), Int(0)) != 1 {
		t.Error("Compare loses the smallest subnormal")
	}
	if v := Float(math.NaN()); !v.IsNull() || v != Null() {
		t.Errorf("Float(NaN) = %#v, want NULL", v)
	}
}

func TestBoolAndStringRoundTrip(t *testing.T) {
	for _, b := range []bool{false, true} {
		v := Bool(b)
		if got, ok := v.AsBool(); v.Kind() != KindBool || v.BoolVal() != b || !ok || got != b {
			t.Errorf("Bool(%v) = %v, AsBool %v %v", b, v.BoolVal(), got, ok)
		}
		if v.String() != strconv.FormatBool(b) {
			t.Errorf("Bool(%v).String() = %q", b, v.String())
		}
	}
	if Compare(Bool(false), Bool(true)) != -1 || Compare(Bool(true), Bool(true)) != 0 {
		t.Error("Compare misorders bools")
	}
	for _, s := range []string{"", "a", "Malta", "\x00"} {
		v := String(s)
		if v.Kind() != KindString || v.StringVal() != s || v.String() != s || v.IntVal() != 0 || v.FloatVal() != 0 {
			t.Errorf("String(%q) = %q / %q", s, v.StringVal(), v.String())
		}
	}
}

// timeInstants are the instants a Value must carry without loss; the
// retriever's segment codec test stores the same list.
func timeInstants() []time.Time {
	return []time.Time{
		{},
		time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC),
		time.Date(1, 12, 31, 23, 59, 59, 0, time.UTC),
		time.Date(1969, 12, 31, 23, 59, 59, 999_999_999, time.UTC),
		time.Unix(0, 0).UTC(),
		time.Date(2024, 2, 29, 12, 30, 15, 999_999_999, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999_999_999, time.UTC),
		time.Date(2021, 6, 1, 1, 30, 0, 5, time.FixedZone("east", 5*3600+1800)),
	}
}

func TestTimeRoundTrip(t *testing.T) {
	instants := timeInstants()
	for i, in := range instants {
		v := Time(in)
		out := v.TimeVal()
		if v.Kind() != KindTime || !out.Equal(in) || out.Location() != time.UTC {
			t.Errorf("Time(%v).TimeVal() = %v in %v, want the same instant in UTC", in, out, out.Location())
		}
		if in.Location() == time.UTC && out != in {
			t.Errorf("Time(%v).TimeVal() = %#v, want the identical time.Time", in, out)
		}
		if got, ok := v.AsTime(); !ok || got != out {
			t.Errorf("Time(%v).AsTime() = %v, %v", in, got, ok)
		}
		if got, ok := v.AsFloat(); !ok || got != float64(in.Unix()) {
			t.Errorf("Time(%v).AsFloat() = %v, %v; want Unix seconds %d", in, got, ok, in.Unix())
		}
		utc := in.UTC()
		layout := "2006-01-02 15:04:05"
		if utc.Hour() == 0 && utc.Minute() == 0 && utc.Second() == 0 {
			layout = "2006-01-02"
		}
		if got, want := v.String(), utc.Format(layout); got != want {
			t.Errorf("Time(%v).String() = %q, want %q", in, got, want)
		}
		for j, other := range instants {
			want := in.Compare(other)
			if got := Compare(v, Time(other)); got != want {
				t.Errorf("Compare(instant %d, instant %d) = %d, want %d", i, j, got, want)
			}
		}
	}
	if got := Time(time.Time{}).TimeVal(); got != (time.Time{}) {
		t.Errorf("the zero time came back as %#v", got)
	}
}

// TestValueAllocs: building, reading and comparing fixed-width values stays
// off the heap — the payload is in the cell.
func TestValueAllocs(t *testing.T) {
	when := time.Date(2024, 2, 29, 12, 30, 15, 7, time.UTC)
	var sink Value
	var at time.Time
	var order int
	checks := map[string]func(){
		"Int":     func() { sink = Int(math.MinInt64) },
		"Float":   func() { sink = Float(2.5) },
		"Time":    func() { sink = Time(when) },
		"TimeVal": func() { at = Time(when).TimeVal() },
		"Compare": func() {
			order = Compare(Int(3), Float(2.5)) + Compare(Float(1), Float(2)) + Compare(Time(when), Time(at))
		},
	}
	if racebuild.Enabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	for name, fn := range checks {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s allocates %v times per run, want 0", name, n)
		}
	}
	_, _, _ = sink, at, order
}
