package table_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"pneuma/internal/kramabench"
	"pneuma/internal/table"
	"pneuma/internal/value"
)

// referenceProfile is BuildProfile by definition: every non-NULL cell
// rendered, a sample being a rendering not in the set of those seen so far.
// It is the definition the probing loop must agree with.
func referenceProfile(t *table.Table) table.Profile {
	var p table.Profile
	for ci := range t.Schema.Columns {
		var cs table.ColumnStats
		distinct := make(map[string]struct{})
		first := true
		for r := 0; r < t.NumRows(); r++ {
			v := t.At(r, ci)
			if v.IsNull() {
				continue
			}
			key := v.String()
			if _, ok := distinct[key]; !ok {
				distinct[key] = struct{}{}
				if len(cs.SampleValues) < 24 {
					cs.SampleValues = append(cs.SampleValues, key)
				}
			}
			if first {
				cs.Min, cs.Max = v, v
				first = false
			} else {
				if value.Compare(v, cs.Min) < 0 {
					cs.Min = v
				}
				if value.Compare(v, cs.Max) > 0 {
					cs.Max = v
				}
			}
		}
		p.Columns = append(p.Columns, cs)
	}
	return p
}

// columnGenerators each draw one cell; a column is cells from one generator,
// or from several for the mixed shapes.
var columnGenerators = map[string]func(r *rand.Rand) value.Value{
	"int":       func(r *rand.Rand) value.Value { return value.Int(int64(r.Intn(60)) - 30) },
	"int-wide":  func(r *rand.Rand) value.Value { return value.Int(int64(r.Uint64())) },
	"float":     func(r *rand.Rand) value.Value { return value.Float(float64(r.Intn(40)) / 8) },
	"float-any": func(r *rand.Rand) value.Value { return value.Float(math.Float64frombits(r.Uint64())) }, // NaN → NULL
	"zeros":     func(r *rand.Rand) value.Value { return value.Float(math.Copysign(0, float64(r.Intn(2))-0.5)) },
	"bool":      func(r *rand.Rand) value.Value { return value.Bool(r.Intn(2) == 0) },
	"word":      func(r *rand.Rand) value.Value { return value.String(fmt.Sprintf("w%d", r.Intn(50))) },
	"digits":    func(r *rand.Rand) value.Value { return value.String(fmt.Sprint(r.Intn(8))) },
	"truth":     func(r *rand.Rand) value.Value { return value.String([]string{"true", "false", ""}[r.Intn(3)]) },
	"null":      func(r *rand.Rand) value.Value { return value.Null() },
	"date": func(r *rand.Rand) value.Value {
		return value.Time(time.Date(1990+r.Intn(5), time.Month(1+r.Intn(12)), 1+r.Intn(3), 0, 0, 0, 0, time.UTC))
	},
	"instant": func(r *rand.Rand) value.Value {
		return value.Time(time.Unix(int64(r.Intn(40)), int64(r.Intn(3))*999_999_999).UTC())
	},
}

// columnShapes name the generators a column draws from. The mixed ones are
// the collisions a payload key would get wrong: two kinds, one rendering.
var columnShapes = [][]string{
	{"int"}, {"int-wide"}, {"float"}, {"float-any"}, {"zeros"}, {"bool"}, {"word"}, {"digits"}, {"truth"},
	{"null"}, {"date"}, {"instant"},
	{"int", "float"}, {"int", "digits"}, {"bool", "truth"}, {"float", "zeros"}, {"date", "word"},
	{"int", "float", "bool", "word", "digits", "date"},
}

func TestBuildProfileMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	for n := 0; n < 2000; n++ {
		shape := columnShapes[n%len(columnShapes)]
		rows := []int{0, 1, 2, 30, 200}[r.Intn(5)]
		nullEvery := []int{0, 2, 7}[r.Intn(3)]
		tb := table.New(table.Schema{Name: fmt.Sprintf("t%d", n), Columns: []table.Column{
			{Name: "c", Type: value.KindFloat}, {Name: "fixed", Type: value.KindString}}})
		for i := 0; i < rows; i++ {
			v := columnGenerators[shape[r.Intn(len(shape))]](r)
			if nullEvery > 0 && r.Intn(nullEvery) == 0 {
				v = value.Null()
			}
			tb.MustAppend(table.Row{v, value.String("same")})
		}
		if got, want := tb.BuildProfile(), referenceProfile(tb); !reflect.DeepEqual(got, want) {
			t.Fatalf("column %d %v, %d rows:\n got %+v\nwant %+v", n, shape, rows, got.Columns[0], want.Columns[0])
		}
	}

	// The collisions spelled out, and more distinct values than samples.
	for name, cells := range map[string][]value.Value{
		"int+float":   {value.Int(5), value.Float(5), value.Int(5)},
		"int+string":  {value.Int(1), value.String("1")},
		"bool+string": {value.Bool(true), value.String("true")},
		"zeros":       {value.Float(0), value.Float(math.Copysign(0, -1)), value.Float(0)},
		"late-mix":    append(manyInts(40), value.Float(3)),
		"many":        manyInts(100),
	} {
		tb := table.New(table.Schema{Name: name, Columns: []table.Column{{Name: "c"}}})
		for _, v := range cells {
			tb.MustAppend(table.Row{v})
		}
		got, want := tb.BuildProfile(), referenceProfile(tb)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", name, got.Columns[0], want.Columns[0])
		}
		if name == "many" && len(got.Columns[0].SampleValues) != 24 {
			t.Errorf("%s: samples=%v", name, got.Columns[0].SampleValues)
		}
	}
}

func manyInts(n int) []value.Value {
	out := make([]value.Value, n)
	for i := range out {
		out[i] = value.Int(int64(i))
	}
	return out
}

func TestBuildProfileMatchesReferenceOnKramabench(t *testing.T) {
	for _, corpus := range []map[string]*table.Table{kramabench.Archaeology(), kramabench.Environment()} {
		for name, tb := range corpus {
			if got, want := tb.BuildProfile(), referenceProfile(tb); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: profile differs from the reference\n got %+v\nwant %+v", name, got, want)
			}
		}
	}
}

// TestBuildProfileConcurrentReaders: goroutines that find the cache empty at
// the same moment all get the one Profile (meaningful under -race).
func TestBuildProfileConcurrentReaders(t *testing.T) {
	tb := kramabench.Archaeology()["soil_samples"]
	want := referenceProfile(tb)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if got := tb.BuildProfile(); !reflect.DeepEqual(got, want) {
				t.Error("concurrent BuildProfile differs from the reference")
			}
		}()
	}
	close(start)
	wg.Wait()
}
