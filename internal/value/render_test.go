package value

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"
)

// referenceString is Value.String as it was before AppendTo: the definition
// the append form and its wrapper must reproduce byte for byte.
func referenceString(v Value) string {
	switch v.kind {
	case KindNull:
		return ""
	case KindBool:
		if v.b() {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.i(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.f(), 'g', -1, 64)
	case KindString:
		return v.s
	case KindTime:
		t := v.t()
		if t.Hour() == 0 && t.Minute() == 0 && t.Second() == 0 {
			return t.Format("2006-01-02")
		}
		return t.Format("2006-01-02 15:04:05")
	default:
		return ""
	}
}

func TestAppendToMatchesReference(t *testing.T) {
	vals := []Value{Null(), Bool(false), Bool(true), String(""), String("°C é 漢字 \xff"), Value{kind: Kind(42)}}
	for _, i := range []int64{math.MinInt64, -100, -1, 0, 7, 99, 100, math.MaxInt64} {
		vals = append(vals, Int(i))
	}
	for _, f := range []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1e-7, 0.1, 2.5, 1e21, 1e300, -math.MaxFloat64, math.Inf(1), math.Inf(-1)} {
		vals = append(vals, Float(f))
	}
	for _, at := range timeInstants() {
		vals = append(vals, Time(at))
	}
	r := rand.New(rand.NewSource(26))
	for range 2000 {
		vals = append(vals,
			Int(int64(r.Uint64())),
			Float(math.Float64frombits(r.Uint64())),
			Float(float64(r.Intn(1e6))/float64(1+r.Intn(1000))),
			Time(time.Unix(r.Int63n(1<<36)-1<<35, r.Int63n(2)*r.Int63n(1e9)).UTC()),
			Time(time.Date(1900+r.Intn(200), time.Month(1+r.Intn(12)), 1+r.Intn(28), 0, 0, 0, 0, time.UTC)))
	}
	for _, v := range vals {
		want := referenceString(v)
		if got := v.String(); got != want {
			t.Fatalf("String(%#v) = %q, want %q", v, got, want)
		}
		if got := string(v.AppendTo([]byte("> "))); got != "> "+want {
			t.Fatalf("AppendTo(%#v) = %q, want %q", v, got, "> "+want)
		}
	}
}
