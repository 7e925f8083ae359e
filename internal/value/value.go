// Package value implements the dynamic, nullable value system shared by the
// table store, the SQL engine and the transform toolkit.
//
// A Value carries one of a small set of runtime kinds (null, bool, int,
// float, string, time) together with coercion and comparison rules that
// mirror what an analytical engine such as DuckDB applies: ints widen to
// floats, comparable strings parse to numbers on demand, and NULL is
// absorbing for arithmetic while sorting first.
//
// A Value is 32 bytes: a kind byte, a uint32 of nanoseconds in what would
// otherwise be padding, one uint64 payload that a bool, an int, a float's
// bits or a time's Unix seconds share, and a string header. It is what a
// table hands back for a cell and what rows and expressions carry, but
// tables do not store it: package table keeps each column as a typed
// vector of payloads (Bits) and rebuilds the Value on read (FromBits). When
// every cell was a Value its size set the live heap — the seeker-turns
// benchmark held 315 MB (heap_mb) with a 64-byte layout and 154 MB with
// this one — and with column vectors it holds about 41 MB. A time is kept
// as its instant only: Time normalises to UTC and TimeVal hands back
// time.Unix(sec, nsec).UTC().
package value

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the runtime type of a Value.
type Kind uint8

// The supported runtime kinds.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindTime
)

// String returns the lower-case SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "boolean"
	case KindInt:
		return "bigint"
	case KindFloat:
		return "double"
	case KindString:
		return "varchar"
	case KindTime:
		return "timestamp"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Numeric reports whether the kind is int or float.
func (k Kind) Numeric() bool { return k == KindInt || k == KindFloat }

// Value is a dynamically typed, nullable scalar. The zero Value is NULL.
//
// n is the one 8-byte payload every fixed-width kind shares: 0/1 for a bool,
// the two's-complement bits of an int, the IEEE-754 bits of a float, the
// Unix seconds of a time. nsec is a time's nanosecond fraction; it sits in
// the padding between kind and n, so it costs no bytes. s is the string
// payload and empty for every other kind.
type Value struct {
	kind Kind
	nsec uint32
	n    uint64
	s    string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Bool wraps a bool.
func Bool(b bool) Value {
	if b {
		return Value{kind: KindBool, n: 1}
	}
	return Value{kind: KindBool}
}

// Int wraps an int64.
func Int(i int64) Value { return Value{kind: KindInt, n: uint64(i)} }

// Float wraps a float64. NaN is normalized to NULL so that aggregates and
// comparisons never observe NaN.
func Float(f float64) Value {
	if math.IsNaN(f) {
		return Null()
	}
	return Value{kind: KindFloat, n: math.Float64bits(f)}
}

// String wraps a string.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Time wraps a timestamp. Only the instant is kept — Unix seconds plus
// nanoseconds — so a time built in another zone comes back from TimeVal as
// the same instant in UTC, and a monotonic clock reading is dropped. The zero
// time.Time round-trips exactly.
func Time(t time.Time) Value {
	return Value{kind: KindTime, nsec: uint32(t.Nanosecond()), n: uint64(t.Unix())}
}

// Bits returns v's fixed-width payload: a bool's 0 or 1, an int's
// two's-complement bits, a float's IEEE-754 bits, or a time's Unix seconds,
// with a time's nanoseconds as nsec. A column vector stores these in place
// of the Value.
func (v Value) Bits() (n uint64, nsec uint32) { return v.n, v.nsec }

// FromBits rebuilds a value of the fixed-width kind k from what Bits
// returned for it: FromBits(v.Kind(), v.Bits()) == v for every bool, int,
// float and time.
func FromBits(k Kind, n uint64, nsec uint32) Value { return Value{kind: k, nsec: nsec, n: n} }

// The payload views below assume the kind has been checked; i is also a
// time's Unix seconds.
func (v Value) b() bool      { return v.n != 0 }
func (v Value) i() int64     { return int64(v.n) }
func (v Value) f() float64   { return math.Float64frombits(v.n) }
func (v Value) t() time.Time { return time.Unix(int64(v.n), int64(v.nsec)).UTC() }

// Kind returns the runtime kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// BoolVal returns the boolean payload (false unless KindBool).
func (v Value) BoolVal() bool { return v.kind == KindBool && v.b() }

// IntVal returns the integer payload, coercing floats by truncation.
func (v Value) IntVal() int64 {
	switch v.kind {
	case KindInt:
		return v.i()
	case KindFloat:
		return int64(v.f())
	case KindBool:
		if v.b() {
			return 1
		}
		return 0
	default:
		return 0
	}
}

// FloatVal returns the numeric payload widened to float64; 0 for
// non-numeric kinds. Use AsFloat when failure must be observable.
func (v Value) FloatVal() float64 {
	switch v.kind {
	case KindFloat:
		return v.f()
	case KindInt:
		return float64(v.i())
	case KindBool:
		if v.b() {
			return 1
		}
		return 0
	default:
		return 0
	}
}

// StringVal returns the string payload ("" unless KindString).
func (v Value) StringVal() string {
	if v.kind == KindString {
		return v.s
	}
	return ""
}

// TimeVal returns the time payload (zero time unless KindTime).
func (v Value) TimeVal() time.Time {
	if v.kind == KindTime {
		return v.t()
	}
	return time.Time{}
}

// AsFloat attempts a numeric view of the value: numerics widen, numeric
// strings parse, times convert to Unix seconds.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(v.i()), true
	case KindFloat:
		return v.f(), true
	case KindBool:
		if v.b() {
			return 1, true
		}
		return 0, true
	case KindString:
		s := strings.TrimSpace(v.s)
		if !mayParseFloat(s) {
			return 0, false
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, false
		}
		return f, true
	case KindTime:
		return float64(v.i()), true // Unix seconds
	default:
		return 0, false
	}
}

// mayParseFloat screens s for strconv.ParseFloat, which heap-allocates a
// *NumError for every string it rejects; text cells reach AsFloat once per
// Compare, so words and dates are turned away here, before they cost an
// allocation. It passes every literal ParseFloat accepts: after an optional
// sign, either exactly inf, infinity or nan in any case, or a digit or point
// followed only by digits, points, underscores, hex letters, x, p and signs,
// each sign right after an exponent mark (e, E, p or P).
func mayParseFloat(s string) bool {
	if s != "" && (s[0] == '+' || s[0] == '-') {
		s = s[1:]
	}
	if s == "" {
		return false
	}
	switch c := s[0]; {
	case c == 'i' || c == 'I' || c == 'n' || c == 'N':
		return strings.EqualFold(s, "inf") || strings.EqualFold(s, "infinity") || strings.EqualFold(s, "nan")
	case c != '.' && (c < '0' || c > '9'):
		return false
	}
	for i := 1; i < len(s); i++ {
		switch c := s[i]; {
		case c == '+' || c == '-':
			if p := s[i-1] | 0x20; p != 'e' && p != 'p' {
				return false
			}
		case '0' <= c && c <= '9', c == '.', c == '_':
		default:
			if l := c | 0x20; (l < 'a' || l > 'f') && l != 'x' && l != 'p' {
				return false
			}
		}
	}
	return true
}

// AsInt attempts an integer view of the value.
func (v Value) AsInt() (int64, bool) {
	switch v.kind {
	case KindInt:
		return v.i(), true
	case KindFloat:
		return int64(v.f()), true
	case KindBool:
		if v.b() {
			return 1, true
		}
		return 0, true
	case KindString:
		i, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
		if err != nil {
			f, ok := v.AsFloat()
			if !ok {
				return 0, false
			}
			return int64(f), true
		}
		return i, true
	default:
		return 0, false
	}
}

// AsBool attempts a boolean view: bools pass through, numbers are non-zero,
// strings accept true/false/t/f/yes/no/1/0 case-insensitively.
func (v Value) AsBool() (bool, bool) {
	switch v.kind {
	case KindBool:
		return v.b(), true
	case KindInt:
		return v.i() != 0, true
	case KindFloat:
		return v.f() != 0, true
	case KindString:
		switch strings.ToLower(strings.TrimSpace(v.s)) {
		case "true", "t", "yes", "y", "1":
			return true, true
		case "false", "f", "no", "n", "0":
			return false, true
		}
		return false, false
	default:
		return false, false
	}
}

// AsTime attempts a timestamp view, parsing common layouts for strings.
func (v Value) AsTime() (time.Time, bool) {
	switch v.kind {
	case KindTime:
		return v.t(), true
	case KindString:
		return ParseTime(v.s)
	case KindInt:
		return time.Unix(v.i(), 0).UTC(), true
	default:
		return time.Time{}, false
	}
}

// timeLayouts are tried in order by ParseTime. The list covers the formats
// the synthetic datasets and the transform toolkit emit or must repair.
var timeLayouts = []string{
	"2006-01-02T15:04:05Z07:00",
	"2006-01-02 15:04:05",
	"2006-01-02",
	"2006/01/02",
	"01/02/2006",
	"02-01-2006",
	"January 2, 2006",
	"Jan 2, 2006",
	"2 January 2006",
	"2006-01",
	"2006",
}

// ParseTime parses s using the shared layout list.
func ParseTime(s string) (time.Time, bool) {
	s = strings.TrimSpace(s)
	if s == "" {
		return time.Time{}, false
	}
	for _, layout := range timeLayouts {
		if t, err := time.Parse(layout, s); err == nil {
			return t.UTC(), true
		}
	}
	return time.Time{}, false
}

// String renders the value the way the CSV writer and the UI print it: the
// bytes AppendTo writes. A string value comes back as itself, not a copy.
func (v Value) String() string {
	switch v.kind {
	case KindString:
		return v.s
	case KindInt:
		return strconv.FormatInt(v.i(), 10) // small ints come back without allocating
	}
	var buf [32]byte
	return string(v.AppendTo(buf[:0]))
}

// AppendTo appends the value's rendering to dst: nothing for NULL, true or
// false, a decimal int, the shortest 'g' form of a float, a string as it is,
// and a time as its UTC date, followed by the clock unless it is midnight.
func (v Value) AppendTo(dst []byte) []byte {
	switch v.kind {
	case KindBool:
		return strconv.AppendBool(dst, v.b())
	case KindInt:
		return strconv.AppendInt(dst, v.i(), 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.f(), 'g', -1, 64)
	case KindString:
		return append(dst, v.s...)
	case KindTime:
		t := v.t()
		if t.Hour() == 0 && t.Minute() == 0 && t.Second() == 0 {
			return t.AppendFormat(dst, "2006-01-02")
		}
		return t.AppendFormat(dst, "2006-01-02 15:04:05")
	}
	return dst
}

// Compare orders two values. NULL sorts before everything; mixed numeric
// kinds compare numerically; strings that both parse as numbers compare
// numerically, otherwise lexically; times compare chronologically. The
// result is -1, 0 or +1.
func Compare(a, b Value) int {
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	if a.kind.Numeric() && b.kind.Numeric() {
		return compareFloat(a.FloatVal(), b.FloatVal())
	}
	if a.kind == KindTime && b.kind == KindTime {
		if c := cmp.Compare(a.i(), b.i()); c != 0 {
			return c
		}
		return cmp.Compare(a.nsec, b.nsec)
	}
	if a.kind == KindBool && b.kind == KindBool {
		switch {
		case !a.b() && b.b():
			return -1
		case a.b() && !b.b():
			return 1
		default:
			return 0
		}
	}
	// Mixed or string comparison: try numeric view of both sides first so
	// that "12" > "9" behaves arithmetically, as users expect from repaired
	// CSV columns.
	if af, aok := a.AsFloat(); aok {
		if bf, bok := b.AsFloat(); bok {
			return compareFloat(af, bf)
		}
	}
	if a.kind == KindTime || b.kind == KindTime {
		at, aok := a.AsTime()
		bt, bok := b.AsTime()
		if aok && bok {
			switch {
			case at.Before(bt):
				return -1
			case at.After(bt):
				return 1
			default:
				return 0
			}
		}
	}
	return strings.Compare(a.render(), b.render())
}

func (v Value) render() string { return v.String() }

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports whether two values compare as equal. NULL equals NULL here
// (useful for grouping keys); SQL tri-state NULL handling lives in the
// expression evaluator, not in this helper.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Infer converts a raw CSV cell into the most specific Value: empty → NULL,
// then int, float, bool, timestamp, finally string.
func Infer(raw string) Value {
	s := strings.TrimSpace(raw)
	if s == "" || strings.EqualFold(s, "null") || strings.EqualFold(s, "na") || strings.EqualFold(s, "n/a") {
		return Null()
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return Float(f)
	}
	switch strings.ToLower(s) {
	case "true", "false":
		b, _ := strconv.ParseBool(strings.ToLower(s))
		return Bool(b)
	}
	if t, ok := ParseTime(s); ok && looksLikeDate(s) {
		return Time(t)
	}
	return String(raw)
}

// looksLikeDate guards time inference: only strings containing a digit and a
// date separator or month name are eligible, so that ordinary words such as
// "March" alone, or codes such as "A-12", do not become timestamps.
func looksLikeDate(s string) bool {
	hasDigit := strings.ContainsAny(s, "0123456789")
	hasSep := strings.ContainsAny(s, "-/,") || strings.Contains(s, " ")
	return hasDigit && hasSep && len(s) >= 6
}

// CoerceKind converts v to the target kind, reporting failure instead of
// silently producing a zero. NULL coerces to NULL of any kind.
func CoerceKind(v Value, k Kind) (Value, bool) {
	if v.IsNull() {
		return Null(), true
	}
	switch k {
	case KindBool:
		b, ok := v.AsBool()
		if !ok {
			return Null(), false
		}
		return Bool(b), true
	case KindInt:
		i, ok := v.AsInt()
		if !ok {
			return Null(), false
		}
		return Int(i), true
	case KindFloat:
		f, ok := v.AsFloat()
		if !ok {
			return Null(), false
		}
		return Float(f), true
	case KindString:
		return String(v.String()), true
	case KindTime:
		t, ok := v.AsTime()
		if !ok {
			return Null(), false
		}
		return Time(t), true
	case KindNull:
		return Null(), true
	default:
		return Null(), false
	}
}

// UnifyKinds returns the narrowest kind both inputs widen to, used by the
// CSV type inferencer and by expression typing: int+float → float, any
// numeric+string → string, anything+null → the other kind.
func UnifyKinds(a, b Kind) Kind {
	if a == b {
		return a
	}
	if a == KindNull {
		return b
	}
	if b == KindNull {
		return a
	}
	if a.Numeric() && b.Numeric() {
		return KindFloat
	}
	return KindString
}
