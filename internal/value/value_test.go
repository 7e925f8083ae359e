package value

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"pneuma/internal/racebuild"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:   "null",
		KindBool:   "boolean",
		KindInt:    "bigint",
		KindFloat:  "double",
		KindString: "varchar",
		KindTime:   "timestamp",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() {
		t.Fatal("zero Value must be NULL")
	}
	if v.Kind() != KindNull {
		t.Fatalf("zero Value kind = %v, want KindNull", v.Kind())
	}
}

func TestFloatNaNBecomesNull(t *testing.T) {
	if !Float(math.NaN()).IsNull() {
		t.Fatal("Float(NaN) must be NULL")
	}
}

func TestAsFloat(t *testing.T) {
	cases := []struct {
		v    Value
		want float64
		ok   bool
	}{
		{Int(42), 42, true},
		{Float(3.5), 3.5, true},
		{Bool(true), 1, true},
		{Bool(false), 0, true},
		{String("2.25"), 2.25, true},
		{String("  17 "), 17, true},
		{String("abc"), 0, false},
		{Null(), 0, false},
	}
	for _, c := range cases {
		got, ok := c.v.AsFloat()
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("AsFloat(%v) = (%v, %v), want (%v, %v)", c.v, got, ok, c.want, c.ok)
		}
	}
}

// TestAsFloatStringAgreesWithParseFloat pins the first-byte screen in AsFloat
// to the parser it stands in front of: for any string, value and ok must be
// what strconv.ParseFloat says of the trimmed text.
func TestAsFloatStringAgreesWithParseFloat(t *testing.T) {
	check := func(s string) {
		t.Helper()
		want, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		got, ok := String(s).AsFloat()
		if ok != (err == nil) {
			t.Errorf("AsFloat(%q) ok = %v, ParseFloat err = %v", s, ok, err)
			return
		}
		if ok && got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("AsFloat(%q) = %v, ParseFloat = %v", s, got, want)
		}
	}
	for _, s := range []string{
		"Inf", "+inf", "-Infinity", "infinity", "INF", "inf ", "infinit", "-i", "i",
		"nan", "NaN", "+nan", "-NaN", "nano", "n", "N/A", "North",
		".5", "-.5e3", "+.5", ".", "-", "+", "1.", "1e", "1e+", "1e5", "1E-5",
		"0x1p-2", "0X1P+3", "0x", "1_000", "0x_1p0", "0b11", "0o7",
		"", " ", " 12 ", "\t7\n", "\u00a012", "12abc", "S001", "2020-01-01", "12:30",
		"é", "\xff", "١٢", "−5", "１２", "$99", "1,200.50", "45%", "(5)", "e5", "E",
		"1e400", "-1e400", "4.9e-324", "1e-400", "00012", "9223372036854775808",
	} {
		check(s)
	}

	// Short strings over an alphabet dense in what a float literal is made
	// of, so the generator keeps landing on near-misses of both kinds.
	const alphabet = "0123456789+-.eExXpP_iInNfFaAtTyY \tSé,"
	letters := []rune(alphabet)
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 10000; i++ {
		b := make([]rune, rng.Intn(9))
		for j := range b {
			b[j] = letters[rng.Intn(len(letters))]
		}
		check(string(b))
	}
}

// TestAsFloatOnWordDoesNotAllocate: a text cell reaches AsFloat on every
// Compare, and ParseFloat would heap-allocate a *NumError to turn it away.
func TestAsFloatOnWordDoesNotAllocate(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	v := String("suspect")
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := v.AsFloat(); ok {
			t.Fatal("a word is not a number")
		}
	}); n != 0 {
		t.Fatalf("AsFloat on a non-numeric word allocates %.0f times, want 0", n)
	}
}

func TestAsBool(t *testing.T) {
	trues := []Value{Bool(true), Int(1), Float(0.5), String("yes"), String("TRUE"), String("1")}
	for _, v := range trues {
		b, ok := v.AsBool()
		if !ok || !b {
			t.Errorf("AsBool(%v) = (%v,%v), want (true,true)", v, b, ok)
		}
	}
	falses := []Value{Bool(false), Int(0), String("no"), String("f"), String("0")}
	for _, v := range falses {
		b, ok := v.AsBool()
		if !ok || b {
			t.Errorf("AsBool(%v) = (%v,%v), want (false,true)", v, b, ok)
		}
	}
	if _, ok := String("banana").AsBool(); ok {
		t.Error("AsBool(banana) should fail")
	}
}

func TestParseTimeLayouts(t *testing.T) {
	cases := []string{
		"2021-03-05",
		"2021/03/05",
		"03/05/2021",
		"March 5, 2021",
		"Mar 5, 2021",
		"5 March 2021",
		"2021-03-05 14:30:00",
	}
	for _, s := range cases {
		tm, ok := ParseTime(s)
		if !ok {
			t.Errorf("ParseTime(%q) failed", s)
			continue
		}
		if tm.Year() != 2021 || tm.Month() != time.March || tm.Day() != 5 {
			t.Errorf("ParseTime(%q) = %v, want 2021-03-05", s, tm)
		}
	}
	if _, ok := ParseTime("not a date"); ok {
		t.Error("ParseTime should fail on garbage")
	}
}

func TestInfer(t *testing.T) {
	cases := []struct {
		in   string
		kind Kind
	}{
		{"", KindNull},
		{"NULL", KindNull},
		{"n/a", KindNull},
		{"42", KindInt},
		{"-7", KindInt},
		{"3.25", KindFloat},
		{"1e3", KindFloat},
		{"true", KindBool},
		{"False", KindBool},
		{"2020-01-15", KindTime},
		{"March 5, 2021", KindTime},
		{"hello", KindString},
		{"March", KindString},      // bare month name must stay a string
		{"A-12", KindString},       // code with dash but too short / no digit+sep date shape
		{"12-34-5678", KindString}, // not a parseable date
	}
	for _, c := range cases {
		if got := Infer(c.in).Kind(); got != c.kind {
			t.Errorf("Infer(%q).Kind() = %v, want %v", c.in, got, c.kind)
		}
	}
}

func TestCompareOrdering(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Null(), Null(), 0},
		{Null(), Int(0), -1},
		{Int(0), Null(), 1},
		{Int(1), Int(2), -1},
		{Int(2), Float(1.5), 1},
		{Float(1.5), Float(1.5), 0},
		{String("a"), String("b"), -1},
		{String("12"), String("9"), 1}, // numeric strings compare numerically
		{Bool(false), Bool(true), -1},
		{Time(time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)), Time(time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)), -1},
		{Int(5), String("5"), 0}, // cross-kind numeric equality
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return Compare(Int(a), Int(b)) == -Compare(Int(b), Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareStringNumericConsistency(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		va, vb := Float(a), Float(b)
		sa, sb := String(va.String()), String(vb.String())
		return Compare(va, vb) == Compare(sa, sb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCoerceKind(t *testing.T) {
	v, ok := CoerceKind(String("42"), KindInt)
	if !ok || v.IntVal() != 42 {
		t.Errorf("CoerceKind(\"42\", int) = (%v, %v)", v, ok)
	}
	v, ok = CoerceKind(Int(3), KindString)
	if !ok || v.StringVal() != "3" {
		t.Errorf("CoerceKind(3, string) = (%v, %v)", v, ok)
	}
	if _, ok := CoerceKind(String("xyz"), KindFloat); ok {
		t.Error("CoerceKind(xyz, float) should fail")
	}
	v, ok = CoerceKind(Null(), KindFloat)
	if !ok || !v.IsNull() {
		t.Error("CoerceKind(NULL, float) must yield NULL, true")
	}
}

func TestUnifyKinds(t *testing.T) {
	cases := []struct {
		a, b, want Kind
	}{
		{KindInt, KindInt, KindInt},
		{KindInt, KindFloat, KindFloat},
		{KindFloat, KindInt, KindFloat},
		{KindNull, KindInt, KindInt},
		{KindInt, KindNull, KindInt},
		{KindInt, KindString, KindString},
		{KindTime, KindTime, KindTime},
		{KindTime, KindString, KindString},
	}
	for _, c := range cases {
		if got := UnifyKinds(c.a, c.b); got != c.want {
			t.Errorf("UnifyKinds(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestStringRoundTripThroughInfer(t *testing.T) {
	f := func(i int64) bool {
		v := Int(i)
		return Infer(v.String()).IntVal() == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueStringRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), ""},
		{Bool(true), "true"},
		{Int(-12), "-12"},
		{Float(2.5), "2.5"},
		{String("hi"), "hi"},
		{Time(time.Date(2020, 5, 4, 0, 0, 0, 0, time.UTC)), "2020-05-04"},
		{Time(time.Date(2020, 5, 4, 13, 15, 0, 0, time.UTC)), "2020-05-04 13:15:00"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
}
