package sqlengine

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"pneuma/internal/value"
)

// scalarFunc is a scalar SQL function implementation.
type scalarFunc func(args []value.Value) (value.Value, error)

// lookupFunc finds a scalar function by name (case-insensitive).
func lookupFunc(name string) (scalarFunc, bool) {
	fn, ok := funcs[strings.ToUpper(name)]
	return fn, ok
}

// funcNamesHint returns a sorted, comma-separated list of the function
// names for error messages.
func funcNamesHint() string {
	names := make([]string, 0, len(funcs))
	for n := range funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func arity(name string, args []value.Value, want int) error {
	if len(args) != want {
		return fmt.Errorf("%s expects %d argument(s), got %d", name, want, len(args))
	}
	return nil
}

func arityRange(name string, args []value.Value, lo, hi int) error {
	if len(args) < lo || len(args) > hi {
		return fmt.Errorf("%s expects %d-%d arguments, got %d", name, lo, hi, len(args))
	}
	return nil
}

func numArg(name string, v value.Value) (float64, bool, error) {
	if v.IsNull() {
		return 0, true, nil
	}
	f, ok := v.AsFloat()
	if !ok {
		return 0, false, fmt.Errorf("%s: value %q is not numeric", name, v.String())
	}
	return f, false, nil
}

// funcs is the scalar function table: upper-case name to implementation,
// filled when the package is initialized and only read afterwards. The
// paper's point that new operators (e.g. semantic operators à la LOTUS)
// "naturally slot into the action space" (§3.5) is that a new operator is
// one more entry here.
var funcs = map[string]scalarFunc{
	// --- numeric ---
	"ABS": func(args []value.Value) (value.Value, error) {
		if err := arity("ABS", args, 1); err != nil {
			return value.Null(), err
		}
		f, isNull, err := numArg("ABS", args[0])
		if err != nil || isNull {
			return value.Null(), err
		}
		if args[0].Kind() == value.KindInt {
			i := args[0].IntVal()
			if i < 0 {
				i = -i
			}
			return value.Int(i), nil
		}
		return value.Float(math.Abs(f)), nil
	},
	"ROUND": func(args []value.Value) (value.Value, error) {
		if err := arityRange("ROUND", args, 1, 2); err != nil {
			return value.Null(), err
		}
		f, isNull, err := numArg("ROUND", args[0])
		if err != nil || isNull {
			return value.Null(), err
		}
		digits := 0
		if len(args) == 2 {
			d, dNull, err := numArg("ROUND", args[1])
			if err != nil {
				return value.Null(), err
			}
			if !dNull {
				digits = int(d)
			}
		}
		scale := math.Pow(10, float64(digits))
		return value.Float(math.Round(f*scale) / scale), nil
	},
	"FLOOR":   oneNum("FLOOR", math.Floor),
	"CEIL":    oneNum("CEIL", math.Ceil),
	"CEILING": oneNum("CEILING", math.Ceil),
	"SQRT": func(args []value.Value) (value.Value, error) {
		if err := arity("SQRT", args, 1); err != nil {
			return value.Null(), err
		}
		f, isNull, err := numArg("SQRT", args[0])
		if err != nil || isNull {
			return value.Null(), err
		}
		if f < 0 {
			return value.Null(), fmt.Errorf("SQRT of negative value %g", f)
		}
		return value.Float(math.Sqrt(f)), nil
	},
	"EXP": oneNum("EXP", math.Exp),
	"LN": func(args []value.Value) (value.Value, error) {
		if err := arity("LN", args, 1); err != nil {
			return value.Null(), err
		}
		f, isNull, err := numArg("LN", args[0])
		if err != nil || isNull {
			return value.Null(), err
		}
		if f <= 0 {
			return value.Null(), fmt.Errorf("LN of non-positive value %g", f)
		}
		return value.Float(math.Log(f)), nil
	},
	"POWER": pow,
	"POW":   pow,

	// --- strings ---
	"LOWER": oneStr("LOWER", strings.ToLower),
	"UPPER": oneStr("UPPER", strings.ToUpper),
	"TRIM":  oneStr("TRIM", strings.TrimSpace),
	"LTRIM": oneStr("LTRIM", func(s string) string { return strings.TrimLeft(s, " \t") }),
	"RTRIM": oneStr("RTRIM", func(s string) string { return strings.TrimRight(s, " \t") }),
	"LENGTH": func(args []value.Value) (value.Value, error) {
		if err := arity("LENGTH", args, 1); err != nil {
			return value.Null(), err
		}
		if args[0].IsNull() {
			return value.Null(), nil
		}
		return value.Int(int64(len([]rune(args[0].String())))), nil
	},
	"SUBSTR": func(args []value.Value) (value.Value, error) {
		if err := arityRange("SUBSTR", args, 2, 3); err != nil {
			return value.Null(), err
		}
		if args[0].IsNull() || args[1].IsNull() {
			return value.Null(), nil
		}
		runes := []rune(args[0].String())
		start, ok := args[1].AsInt()
		if !ok {
			return value.Null(), fmt.Errorf("SUBSTR: start %q is not an integer", args[1].String())
		}
		// SQL is 1-based.
		idx := int(start) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(runes) {
			return value.String(""), nil
		}
		end := len(runes)
		if len(args) == 3 && !args[2].IsNull() {
			n, ok := args[2].AsInt()
			if !ok {
				return value.Null(), fmt.Errorf("SUBSTR: length %q is not an integer", args[2].String())
			}
			if int(n) < 0 {
				n = 0
			}
			if idx+int(n) < end {
				end = idx + int(n)
			}
		}
		return value.String(string(runes[idx:end])), nil
	},
	"REPLACE": func(args []value.Value) (value.Value, error) {
		if err := arity("REPLACE", args, 3); err != nil {
			return value.Null(), err
		}
		if args[0].IsNull() {
			return value.Null(), nil
		}
		return value.String(strings.ReplaceAll(args[0].String(), args[1].String(), args[2].String())), nil
	},
	"CONCAT": func(args []value.Value) (value.Value, error) {
		var b strings.Builder
		for _, a := range args {
			if !a.IsNull() {
				b.WriteString(a.String())
			}
		}
		return value.String(b.String()), nil
	},
	"CONTAINS": func(args []value.Value) (value.Value, error) {
		if err := arity("CONTAINS", args, 2); err != nil {
			return value.Null(), err
		}
		if args[0].IsNull() || args[1].IsNull() {
			return value.Null(), nil
		}
		return value.Bool(strings.Contains(
			strings.ToLower(args[0].String()), strings.ToLower(args[1].String()))), nil
	},

	// --- null handling / conditionals ---
	"COALESCE": func(args []value.Value) (value.Value, error) {
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return value.Null(), nil
	},
	"NULLIF": func(args []value.Value) (value.Value, error) {
		if err := arity("NULLIF", args, 2); err != nil {
			return value.Null(), err
		}
		if !args[0].IsNull() && !args[1].IsNull() && value.Equal(args[0], args[1]) {
			return value.Null(), nil
		}
		return args[0], nil
	},
	"IFNULL": func(args []value.Value) (value.Value, error) {
		if err := arity("IFNULL", args, 2); err != nil {
			return value.Null(), err
		}
		if args[0].IsNull() {
			return args[1], nil
		}
		return args[0], nil
	},
	"IIF": iif,
	"IF":  iif,
	"GREATEST": func(args []value.Value) (value.Value, error) {
		return extremum(args, +1)
	},
	"LEAST": func(args []value.Value) (value.Value, error) {
		return extremum(args, -1)
	},

	// --- temporal ---
	"YEAR":  datePart("YEAR"),
	"MONTH": datePart("MONTH"),
	"DAY":   datePart("DAY"),
	"DATE_PART": func(args []value.Value) (value.Value, error) {
		if err := arity("DATE_PART", args, 2); err != nil {
			return value.Null(), err
		}
		part := strings.ToUpper(args[0].String())
		return datePart(part)(args[1:])
	},
	"PARSE_DATE": func(args []value.Value) (value.Value, error) {
		if err := arity("PARSE_DATE", args, 1); err != nil {
			return value.Null(), err
		}
		if args[0].IsNull() {
			return value.Null(), nil
		}
		t, ok := args[0].AsTime()
		if !ok {
			return value.Null(), fmt.Errorf("PARSE_DATE: cannot parse %q as a date", args[0].String())
		}
		return value.Time(t), nil
	},
	"EPOCH": func(args []value.Value) (value.Value, error) {
		if err := arity("EPOCH", args, 1); err != nil {
			return value.Null(), err
		}
		if args[0].IsNull() {
			return value.Null(), nil
		}
		t, ok := args[0].AsTime()
		if !ok {
			return value.Null(), fmt.Errorf("EPOCH: %q is not a timestamp", args[0].String())
		}
		return value.Int(t.Unix()), nil
	},
	"TYPEOF": func(args []value.Value) (value.Value, error) {
		if err := arity("TYPEOF", args, 1); err != nil {
			return value.Null(), err
		}
		return value.String(args[0].Kind().String()), nil
	},
}

// pow is POWER and POW.
func pow(args []value.Value) (value.Value, error) {
	if err := arity("POWER", args, 2); err != nil {
		return value.Null(), err
	}
	a, aNull, err := numArg("POWER", args[0])
	if err != nil {
		return value.Null(), err
	}
	b, bNull, err := numArg("POWER", args[1])
	if err != nil {
		return value.Null(), err
	}
	if aNull || bNull {
		return value.Null(), nil
	}
	return value.Float(math.Pow(a, b)), nil
}

// iif is IIF and IF.
func iif(args []value.Value) (value.Value, error) {
	if err := arity("IIF", args, 3); err != nil {
		return value.Null(), err
	}
	if triOf(args[0]) == triTrue {
		return args[1], nil
	}
	return args[2], nil
}

func oneNum(name string, fn func(float64) float64) scalarFunc {
	return func(args []value.Value) (value.Value, error) {
		if err := arity(name, args, 1); err != nil {
			return value.Null(), err
		}
		f, isNull, err := numArg(name, args[0])
		if err != nil || isNull {
			return value.Null(), err
		}
		return value.Float(fn(f)), nil
	}
}

func oneStr(name string, fn func(string) string) scalarFunc {
	return func(args []value.Value) (value.Value, error) {
		if err := arity(name, args, 1); err != nil {
			return value.Null(), err
		}
		if args[0].IsNull() {
			return value.Null(), nil
		}
		return value.String(fn(args[0].String())), nil
	}
}

func extremum(args []value.Value, dir int) (value.Value, error) {
	if len(args) == 0 {
		return value.Null(), fmt.Errorf("GREATEST/LEAST needs at least one argument")
	}
	best := value.Null()
	for _, a := range args {
		if a.IsNull() {
			continue
		}
		if best.IsNull() || value.Compare(a, best)*dir > 0 {
			best = a
		}
	}
	return best, nil
}

func datePart(part string) scalarFunc {
	return func(args []value.Value) (value.Value, error) {
		if len(args) != 1 {
			return value.Null(), fmt.Errorf("%s expects 1 argument, got %d", part, len(args))
		}
		if args[0].IsNull() {
			return value.Null(), nil
		}
		t, ok := args[0].AsTime()
		if !ok {
			return value.Null(), fmt.Errorf("%s: %q is not a timestamp (consider PARSE_DATE first)", part, args[0].String())
		}
		switch part {
		case "YEAR":
			return value.Int(int64(t.Year())), nil
		case "MONTH":
			return value.Int(int64(t.Month())), nil
		case "DAY":
			return value.Int(int64(t.Day())), nil
		case "HOUR":
			return value.Int(int64(t.Hour())), nil
		case "MINUTE":
			return value.Int(int64(t.Minute())), nil
		default:
			return value.Null(), fmt.Errorf("unknown date part %q", part)
		}
	}
}
