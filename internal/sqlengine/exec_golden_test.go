package sqlengine

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"pneuma/internal/table"
	"pneuma/internal/value"
)

// goldenFixtures builds the three tables the executor golden runs over: l and
// r join on k, a column of mixed kinds with duplicates and NULLs (int, float,
// numeric and plain strings, -0, a bool), l.t holds times and r.d the same
// dates as strings; m is seeded filler for grouping, ordering and limits.
func goldenFixtures() []*table.Table {
	i, f, s, null := value.Int, value.Float, value.String, value.Null()
	day := func(d string) value.Value {
		tm, _ := value.ParseTime(d)
		return value.Time(tm)
	}
	l := table.New(table.Schema{Name: "l", Columns: []table.Column{
		{Name: "id", Type: value.KindInt}, {Name: "k", Type: value.KindString},
		{Name: "a", Type: value.KindString}, {Name: "t", Type: value.KindTime},
	}})
	for _, row := range []table.Row{
		{i(1), i(1), s("a1"), day("2021-01-01")},
		{i(2), i(2), s("a2"), day("2021-01-02")},
		{i(3), i(2), s("a2b"), null},
		{i(4), null, s("anull"), day("2021-01-03")},
		{i(5), s("3"), s("a3s"), day("2021-01-01")},
		{i(6), f(4), s("a4f"), null},
		{i(7), s("x"), s("ax"), day("2021-02-01")},
		{i(8), f(math.Copysign(0, -1)), s("az"), day("2021-01-02")},
		{i(9), value.Bool(true), s("abool"), day("2021-01-05")},
	} {
		l.MustAppend(row)
	}
	r := table.New(table.Schema{Name: "r", Columns: []table.Column{
		{Name: "id", Type: value.KindInt}, {Name: "k", Type: value.KindString},
		{Name: "b", Type: value.KindString}, {Name: "d", Type: value.KindString},
	}})
	for _, row := range []table.Row{
		{i(1), f(1), s("b1f"), s("2021-01-01")},
		{i(2), s("2"), s("b2s"), s("2021-01-02")},
		{i(3), i(2), s("b2"), s("01/03/2021")},
		{i(4), i(3), s("b3"), null},
		{i(5), null, s("bnull"), s("2021-01-03")},
		{i(6), s("x"), s("bx"), s("February 1, 2021")},
		{i(7), i(5), s("b5"), s("n.d.")},
		{i(8), i(0), s("b0"), s("2021-01-01")},
		{i(9), i(3), s("b3b"), s("2021-01-05")},
	} {
		r.MustAppend(row)
	}
	m := table.New(table.Schema{Name: "m", Columns: []table.Column{
		{Name: "id", Type: value.KindInt}, {Name: "k", Type: value.KindInt},
		{Name: "grp", Type: value.KindString}, {Name: "v", Type: value.KindFloat},
	}})
	rng := rand.New(rand.NewSource(32))
	for id := 1; id <= 24; id++ {
		k, v := value.Int(int64(rng.Intn(6))), value.Float(float64(rng.Intn(400))/4)
		if rng.Intn(7) == 0 {
			k = null
		}
		if rng.Intn(6) == 0 {
			v = null
		}
		m.MustAppend(table.Row{i(int64(id)), k, s([]string{"x", "y", "z"}[rng.Intn(3)]), v})
	}
	return []*table.Table{l, r, m}
}

// goldenQueries are the statements of testdata/exec.golden: joins of every
// kind and shape, filters, grouping and ordering over them, and the errors a
// statement over these tables can raise.
var goldenQueries = []string{
	`SELECT * FROM l`,
	`SELECT * FROM r`,
	`SELECT * FROM m`,
	`SELECT l.id, r.id FROM l JOIN r ON l.k = r.k`,
	`SELECT l.id, r.id FROM l JOIN r ON l.k = r.k OR 1 = 0`,
	`SELECT l.id, r.id FROM l JOIN r ON r.k = l.k`,
	`SELECT l.id, r.b FROM l LEFT JOIN r ON l.k = r.k`,
	`SELECT l.id, r.b FROM l LEFT JOIN r ON l.k = r.k AND r.id > 3`,
	`SELECT l.id, r.id FROM l JOIN r ON l.k = r.k AND r.b <> 'b2'`,
	`SELECT l.id, r.id FROM l JOIN r ON l.k = r.k AND l.id = r.id`,
	`SELECT l.id, r.id FROM l JOIN r ON l.id = r.id`,
	`SELECT l.id, r.id FROM l JOIN r ON l.id + 1 = r.id`,
	`SELECT l.id, r.id FROM l JOIN r ON l.id < r.id AND r.id < 4`,
	`SELECT l.id, r.id FROM l JOIN r ON l.t = r.d`,
	`SELECT l.id, r.id FROM l LEFT JOIN r ON l.t = r.d AND r.id > 1`,
	`SELECT l.id, r.id FROM l CROSS JOIN r WHERE l.id <= 2`,
	`SELECT COUNT(*) FROM l CROSS JOIN r`,
	`SELECT * FROM l JOIN r USING (k)`,
	`SELECT l.id, r.id FROM l JOIN r USING (id, k)`,
	`SELECT l.id, r.id, m.id FROM l JOIN r ON l.k = r.k JOIN m ON m.k = r.k`,
	`SELECT l.id, r.id, m.id FROM l LEFT JOIN r ON l.k = r.k LEFT JOIN m ON r.id = m.id`,
	`SELECT l.id, r.id, r2.b FROM l JOIN r ON l.k = r.k JOIN r AS r2 ON r2.id = r.id + 1`,
	`SELECT l.a, r.b FROM l JOIN r ON l.k = r.k WHERE r.id > 2`,
	`SELECT l.id, r.id FROM l JOIN r ON l.k = r.k WHERE l.a LIKE 'a2%'`,
	`SELECT * FROM l JOIN r ON l.id = r.id WHERE r.d IS NOT NULL ORDER BY l.id DESC LIMIT 3`,
	`SELECT l.id, x.id FROM l JOIN l AS x ON l.k = x.k`,
	`SELECT a.id, b.id FROM m a JOIN m b ON a.k = b.k AND a.id < b.id WHERE a.grp = 'x'`,
	`SELECT r.b, COUNT(*), SUM(l.id) FROM l JOIN r ON l.k = r.k GROUP BY r.b HAVING COUNT(*) >= 1 ORDER BY r.b`,
	`SELECT r.k, COUNT(*) FROM l JOIN r ON l.k = r.k GROUP BY r.k ORDER BY 2 DESC, 1`,
	`SELECT l.id, COUNT(r.id) FROM l LEFT JOIN r ON l.k = r.k GROUP BY l.id ORDER BY l.id`,
	`SELECT m.grp, SUM(r.id) FROM m JOIN r ON m.k = r.k GROUP BY m.grp ORDER BY m.grp`,
	`SELECT COUNT(*), SUM(l.id), MAX(r.b) FROM l JOIN r ON l.k = r.k WHERE l.id > 100`,
	`SELECT COUNT(*), MIN(r.b) FROM l LEFT JOIN r ON l.id = r.id WHERE l.id < 0`,
	`SELECT l.id, s.n FROM l JOIN (SELECT k, COUNT(*) AS n FROM r GROUP BY k) AS s ON l.k = s.k`,
	`SELECT DISTINCT k FROM l`,
	`SELECT DISTINCT k FROM r`,
	`SELECT DISTINCT l.k, r.k FROM l CROSS JOIN r WHERE l.id < 4`,
	`SELECT DISTINCT grp FROM m ORDER BY grp DESC`,
	`SELECT DISTINCT grp FROM m LIMIT 1`,
	`SELECT k, COUNT(*) FROM l GROUP BY k`,
	`SELECT id FROM l WHERE k = 2`,
	`SELECT id, k FROM m ORDER BY k`,
	`SELECT id, k FROM m ORDER BY k DESC, id LIMIT 5`,
	`SELECT id, k FROM m ORDER BY k LIMIT 3 OFFSET 2`,
	`SELECT id, v * 2 AS vv FROM m ORDER BY vv DESC, id LIMIT 5 OFFSET 1`,
	`SELECT id FROM m WHERE k IN (1, 2) ORDER BY id DESC LIMIT 4`,
	`SELECT id, v FROM m WHERE v IS NULL`,
	`SELECT * FROM m LIMIT 0`,
	`SELECT id FROM m LIMIT 2 OFFSET 100`,
	`SELECT grp, COUNT(*), AVG(v), MIN(v), MAX(v) FROM m GROUP BY grp ORDER BY grp`,
	`SELECT grp, k, COUNT(*) FROM m GROUP BY grp, k ORDER BY grp, k`,
	`SELECT grp, MEDIAN(v) FROM m GROUP BY grp HAVING COUNT(v) > 2 ORDER BY grp`,
	`SELECT COUNT(DISTINCT k) FROM m`,
	`SELECT * FROM (SELECT k, COUNT(*) AS n FROM m GROUP BY k) AS s ORDER BY n DESC, k`,
	`SELECT FIRST(v), LAST(v) FROM (SELECT v FROM m ORDER BY id) AS s`,
	`SELECT id FROM l UNION ALL SELECT id FROM r`,
	`SELECT k FROM l WHERE id < 3 UNION ALL SELECT k FROM r WHERE id < 3`,
	`SELECT 1 + 2 AS three, 'x' || 'y'`,
	`SELECT nope FROM l`,
	`SELECT k FROM l JOIN r ON l.k = r.k`,
	`SELECT * FROM l JOIN r USING (zz)`,
	`SELECT l.id FROM l JOIN r ON l.a + 1 = r.id`,
	`SELECT * FROM missing`,
	`SELECT id FROM l UNION ALL SELECT id, k FROM r`,
}

// renderResult writes everything a query result holds: column names and
// kinds, then every cell as kind:text.
func renderResult(t *table.Table) string {
	var b strings.Builder
	for i, c := range t.Schema.Columns {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s:%s", c.Name, c.Type)
	}
	for ri := range t.NumRows() {
		row := t.Row(ri)
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

// goldenViews rebuilds each golden fixture as a projection of a wider table
// that holds its columns shuffled among filler columns, so every scan, join,
// NULL tuple, UNION and GROUP BY reads the fixture's cells through column
// positions.
func goldenViews(t *testing.T) []*table.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(39))
	var out []*table.Table
	for _, src := range goldenFixtures() {
		wide := table.Schema{Name: src.Schema.Name, Description: src.Schema.Description}
		for i := 0; i < 3; i++ {
			wide.Columns = append(wide.Columns, table.Column{Name: fmt.Sprintf("filler%d", i), Type: value.KindString})
		}
		wide.Columns = append(wide.Columns, src.Schema.Columns...)
		perm := rng.Perm(len(wide.Columns))
		shuffled := wide
		shuffled.Columns = make([]table.Column, len(perm))
		for i, j := range perm {
			shuffled.Columns[i] = wide.Columns[j]
		}
		rows := make([]table.Row, src.NumRows())
		for r := range rows {
			cells := append(table.Row{value.String("hidden"), value.Int(-1), value.Null()}, src.Row(r)...)
			rows[r] = make(table.Row, len(perm))
			for i, j := range perm {
				rows[r][i] = cells[j]
			}
		}
		base := table.FromRows(shuffled, rows)
		keep := make([]int, src.NumCols())
		for c, col := range src.Schema.Columns {
			keep[c] = shuffled.ColumnIndex(col.Name)
		}
		view := base.Project(keep)
		if !reflect.DeepEqual(view.Schema, src.Schema) {
			t.Fatalf("view of %s has schema %v", src.Schema.Name, view.Schema)
		}
		out = append(out, view)
	}
	return out
}

// runGolden runs every golden query over srcs and renders each result or
// error, failing if a query wrote any cell of a source table.
func runGolden(t *testing.T, srcs []*table.Table) string {
	t.Helper()
	e := NewEngine()
	want := make([]string, len(srcs))
	for i, src := range srcs {
		e.Register(src)
		want[i] = renderResult(src)
	}
	var b strings.Builder
	for _, q := range goldenQueries {
		fmt.Fprintf(&b, "-- %s\n", q)
		out, err := e.Query(q)
		if err != nil {
			fmt.Fprintf(&b, "error: %v\n\n", err)
		} else {
			fmt.Fprintf(&b, "%s\n\n", renderResult(out))
		}
		for i, src := range srcs {
			if got := renderResult(src); got != want[i] {
				t.Fatalf("%s wrote source table %s\n got:\n%s\nwant:\n%s", q, src.Schema.Name, got, want[i])
			}
		}
	}
	return b.String()
}

// TestExecGolden pins the executor's output on testdata/exec.golden, entry
// by entry: the rendered result or the error text of every golden query.
func TestExecGolden(t *testing.T) {
	checkGolden(t, runGolden(t, goldenFixtures()))
}

// TestExecGoldenOverViews runs the golden queries over projections of wider,
// column-shuffled tables (goldenViews): the output must be the same bytes.
func TestExecGoldenOverViews(t *testing.T) {
	checkGolden(t, runGolden(t, goldenViews(t)))
}

// checkGolden compares got with testdata/exec.golden, entry by entry.
func checkGolden(t *testing.T, got string) {
	t.Helper()
	want, err := os.ReadFile("testdata/exec.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotEntries := strings.Split(got, "\n\n")
	wantEntries := strings.Split(string(want), "\n\n")
	for i := range gotEntries {
		if i >= len(wantEntries) {
			t.Errorf("extra entry:\n%s", gotEntries[i])
			continue
		}
		if gotEntries[i] != wantEntries[i] {
			t.Errorf("entry differs\n got:\n%s\nwant:\n%s", gotEntries[i], wantEntries[i])
		}
	}
	if len(wantEntries) > len(gotEntries) {
		t.Errorf("%d golden entries missing", len(wantEntries)-len(gotEntries))
	}
}
