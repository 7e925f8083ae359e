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

// checkAsFloat holds AsFloat on String(s) to the parser its screen stands in
// front of: value and ok must be what strconv.ParseFloat says of the trimmed
// text.
func checkAsFloat(t testing.TB, s string) {
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

// asFloatInputs are the near-misses on both sides of the screen in AsFloat;
// they also seed FuzzAsFloatAgreesWithParseFloat.
var asFloatInputs = []string{
	"Inf", "+inf", "-Infinity", "infinity", "INF", "inf ", "infinit", "-i", "i",
	"nan", "NaN", "+nan", "-NaN", "nano", "n", "N/A", "North",
	".5", "-.5e3", "+.5", ".", "-", "+", "1.", "1e", "1e+", "1e5", "1E-5",
	"0x1p-2", "0X1P+3", "0x", "1_000", "0x_1p0", "0b11", "0o7",
	"", " ", " 12 ", "\t7\n", "\u00a012", "12abc", "S001", "2020-01-01", "12:30",
	"é", "\xff", "١٢", "−5", "１２", "$99", "1,200.50", "45%", "(5)", "e5", "E",
	"1e400", "-1e400", "4.9e-324", "1e-400", "00012", "9223372036854775808",
}

// TestAsFloatStringAgreesWithParseFloat pins the screen in AsFloat to the
// parser it stands in front of, over asFloatInputs and a walk of short
// strings.
func TestAsFloatStringAgreesWithParseFloat(t *testing.T) {
	for _, s := range asFloatInputs {
		checkAsFloat(t, s)
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
		checkAsFloat(t, string(b))
	}
}

// FuzzAsFloatAgreesWithParseFloat is TestAsFloatStringAgreesWithParseFloat's
// check on arbitrary strings: the screen is a small grammar, and a walk over
// one alphabet is thin cover for a grammar.
func FuzzAsFloatAgreesWithParseFloat(f *testing.F) {
	for _, s := range asFloatInputs {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { checkAsFloat(t, s) })
}

// TestAsFloatOnWordDoesNotAllocate: a text cell reaches AsFloat on every
// Compare, and ParseFloat would heap-allocate a *NumError to turn it away.
// The inputs are words and dates that start the way a float literal can.
func TestAsFloatOnWordDoesNotAllocate(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	for _, s := range []string{"suspect", "1936-07-06", "Necropolis", "Neutron activation", "Netherlands"} {
		v := String(s)
		if n := testing.AllocsPerRun(100, func() {
			if _, ok := v.AsFloat(); ok {
				t.Fatalf("%q is not a number", s)
			}
		}); n != 0 {
			t.Errorf("AsFloat(%q) allocates %.0f times, want 0", s, n)
		}
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

// parseTimeNaive is ParseTime without the layout screens: every layout in
// order through time.Parse, the first that parses winning.
func parseTimeNaive(s string) (time.Time, bool) {
	s = strings.TrimSpace(s)
	if s == "" {
		return time.Time{}, false
	}
	for _, l := range timeLayouts {
		if t, err := time.Parse(l.layout, s); err == nil {
			return t.UTC(), true
		}
	}
	return time.Time{}, false
}

// parseTimeInputs are one example of each layout plus near misses: a date
// cut short or run long, another separator, a one-digit field, a month
// name in another case, an out-of-range field, words and codes.
var parseTimeInputs = []string{
	"2021-03-05T14:30:00Z", "2021-03-05T14:30:00+02:00", "2021-03-05T4:30:00Z", "2021-03-05T14:30:00.123Z",
	"2021-03-05t14:30:00Z", "2021-03-05 14:30:00", "2021-03-05  14:30:00", "2021-03-05 14:30:00.5",
	"2021-03-05", "2021-3-05", "2021-03-5", "2021-03-055", "2021/03/05", "2021/3/5", "03/05/2021",
	"3/05/2021", "05-03-2021", "5-03-2021", "March 5, 2021", "march 5, 2021", "MARCH 5,  2021",
	"Mar 5, 2021", "mAr 05, 2021", "Sept 5, 2021", "5 March 2021", "05 March 2021", "5  March 2021",
	"5 Mar 2021", "2021-03", "2021-13", "2021", "0000", "-2021", "+2021", "20210", "2021-02-30",
	"  2021-03-05  ", "\t2021-03-05\n", "not a date", "A-12", "March", "Marching", "12345", "1,234",
	"", "  ", "2", "29", "2 ", "Jan", "J", "2021-03-05T", "2021-03-05 ", "99/99/9999", "2021\u00a0",
}

func checkParseTime(t *testing.T, s string) {
	t.Helper()
	got, ok := ParseTime(s)
	want, wantOK := parseTimeNaive(s)
	if ok != wantOK || got != want {
		t.Fatalf("ParseTime(%q) = (%v, %v), the ordered loop gives (%v, %v)", s, got, ok, want, wantOK)
	}
}

// TestParseTimeMatchesNaive holds ParseTime's screened loop to the plain
// ordered one on every input above and on each of them with one byte
// replaced by a digit, a separator, a letter or a space.
func TestParseTimeMatchesNaive(t *testing.T) {
	for _, s := range parseTimeInputs {
		checkParseTime(t, s)
		for i := range len(s) {
			for _, c := range []byte("09-/:T ,aZ+") {
				checkParseTime(t, s[:i]+string(c)+s[i+1:])
			}
		}
	}
}

// FuzzParseTimeMatchesNaive is TestParseTimeMatchesNaive on arbitrary
// strings: the screens must never skip a layout that parses.
func FuzzParseTimeMatchesNaive(f *testing.F) {
	for _, s := range parseTimeInputs {
		f.Add(s)
	}
	f.Fuzz(checkParseTime)
}

// TestParseTimeSkipsLayoutsWithoutAllocating: every failed time.Parse
// allocates a *time.ParseError, so a date in any layout, and a word or
// code no screen admits, must parse (or be turned away) with no
// allocation.
func TestParseTimeSkipsLayoutsWithoutAllocating(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	for _, s := range []string{"2021-03-05", "2021/03/05", "03/05/2021", "05-03-2021", "March 5, 2021",
		"Mar 5, 2021", "5 March 2021", "2021-03", "2021", "2021-03-05 14:30:00", "suspect", "A-12", "12345", "1,234.5"} {
		if n := testing.AllocsPerRun(100, func() { ParseTime(s) }); n != 0 {
			t.Errorf("ParseTime(%q) allocates %.0f times, want 0", s, n)
		}
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
