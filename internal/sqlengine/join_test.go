package sqlengine

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"pneuma/internal/racebuild"
	"pneuma/internal/table"
	"pneuma/internal/value"
)

// equiJoinEngine holds the shape of the Materializer's join: an n-row l
// whose every row matches exactly one row of a fixed 50-row r.
func equiJoinEngine(n int) *Engine {
	l := table.New(table.Schema{Name: "l", Columns: []table.Column{
		{Name: "k", Type: value.KindInt}, {Name: "a", Type: value.KindString}, {Name: "x", Type: value.KindFloat},
	}})
	for i := 0; i < n; i++ {
		l.MustAppend(table.Row{value.Int(int64(i % 50)), value.String("site"), value.Float(float64(i))})
	}
	r := table.New(table.Schema{Name: "r", Columns: []table.Column{
		{Name: "k", Type: value.KindInt}, {Name: "b", Type: value.KindString},
	}})
	for i := 0; i < 50; i++ {
		r.MustAppend(table.Row{value.Int(int64(i)), value.String("region")})
	}
	e := NewEngine()
	e.Register(l)
	e.Register(r)
	return e
}

// TestEquiJoinAllocsFlat holds that a hash join moves row numbers and
// writes each output cell once: its allocation count does not grow with the
// probe side. It measured 118 at 100 left rows and 119 at 10 000; the
// executor that copied every joined row took 776 and 50 301.
func TestEquiJoinAllocsFlat(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	sel, err := Parse(`SELECT l.*, r.b FROM l JOIN r ON l.k = r.k`)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		e := equiJoinEngine(n)
		return testing.AllocsPerRun(10, func() {
			out, err := e.Exec(sel)
			if err != nil || out.NumRows() != n {
				t.Fatalf("join of %d rows: %v, %d rows", n, err, out.NumRows())
			}
		})
	}
	small, large := allocs(100), allocs(10000)
	if large > small+2 {
		t.Errorf("allocations grow with the probe side: %v at 100 rows, %v at 10000", small, large)
	}
}

// fuzzKeys decodes a comma-separated list of join keys, each a kind letter
// and its text: n NULL, i int, f float, b bool, t time (a date or Unix
// seconds), s string; anything else is a string as written. At most 16.
func fuzzKeys(spec string) []value.Value {
	var out []value.Value
	for _, item := range strings.Split(spec, ",") {
		if len(out) == 16 {
			break
		}
		if item == "" {
			continue
		}
		body := item[1:]
		switch item[0] {
		case 'n':
			out = append(out, value.Null())
		case 'i':
			n, _ := strconv.ParseInt(body, 10, 64)
			out = append(out, value.Int(n))
		case 'f':
			f, _ := strconv.ParseFloat(body, 64)
			out = append(out, value.Float(f))
		case 'b':
			out = append(out, value.Bool(body == "1"))
		case 't':
			tm, ok := value.ParseTime(body)
			if !ok {
				n, _ := strconv.ParseInt(body, 10, 64)
				tm = time.Unix(n, 0)
			}
			out = append(out, value.Time(tm))
		case 's':
			out = append(out, value.String(body))
		default:
			out = append(out, value.String(item))
		}
	}
	return out
}

func keyTable(name string, keys []value.Value) *table.Table {
	t := table.New(table.Schema{Name: name, Columns: []table.Column{
		{Name: "i", Type: value.KindInt}, {Name: "k", Type: value.KindString},
	}})
	for i, k := range keys {
		t.MustAppend(table.Row{value.Int(int64(i)), k})
	}
	return t
}

// FuzzJoinKeys holds the hash join to the meaning of =: on key columns of
// any kinds, ON l.k = r.k (a hash join) returns the rows ON l.k = r.k OR
// 1 = 0 (a nested loop evaluating = on every pair) returns, inner and left,
// and neither writes a source table.
func FuzzJoinKeys(f *testing.F) {
	f.Add("i1,i2,n,sx", "f1,s2,n,sx")
	f.Fuzz(func(t *testing.T, lspec, rspec string) {
		l, r := keyTable("l", fuzzKeys(lspec)), keyTable("r", fuzzKeys(rspec))
		lWant, rWant := renderResult(l), renderResult(r)
		e := NewEngine()
		e.Register(l)
		e.Register(r)
		for _, join := range []string{"JOIN", "LEFT JOIN"} {
			run := func(on string) string {
				out, err := e.Query(fmt.Sprintf("SELECT l.i, r.i FROM l %s r ON %s", join, on))
				if err != nil {
					t.Fatal(err)
				}
				return renderResult(out)
			}
			if hash, loop := run("l.k = r.k"), run("l.k = r.k OR 1 = 0"); hash != loop {
				t.Errorf("%s: hash join and nested loop differ\nhash:\n%s\nloop:\n%s", join, hash, loop)
			}
		}
		if renderResult(l) != lWant || renderResult(r) != rWant {
			t.Fatal("a join wrote a source table")
		}
	})
}
