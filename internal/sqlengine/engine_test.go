package sqlengine

import (
	"strings"
	"testing"

	"pneuma/internal/racebuild"
	"pneuma/internal/table"
	"pneuma/internal/value"
)

// testEngine builds an engine with small fixture tables.
func testEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine()

	proc := table.New(table.Schema{
		Name: "procurement",
		Columns: []table.Column{
			{Name: "id", Type: value.KindInt},
			{Name: "supplier_id", Type: value.KindInt},
			{Name: "item", Type: value.KindString},
			{Name: "price", Type: value.KindFloat},
			{Name: "country", Type: value.KindString},
		},
	})
	rows := []struct {
		id, sup int64
		item    string
		price   float64
		country string
	}{
		{1, 100, "microscope", 1200.50, "Germany"},
		{2, 100, "centrifuge", 800.00, "Germany"},
		{3, 200, "beaker", 12.25, "France"},
		{4, 300, "laptop", 999.99, "USA"},
		{5, 200, "pipette", 45.00, "France"},
		{6, 400, "reagent", 300.00, "Germany"},
	}
	for _, r := range rows {
		proc.MustAppend(table.Row{
			value.Int(r.id), value.Int(r.sup), value.String(r.item),
			value.Float(r.price), value.String(r.country),
		})
	}
	e.Register(proc)

	tariffs := table.New(table.Schema{
		Name: "tariffs",
		Columns: []table.Column{
			{Name: "country", Type: value.KindString},
			{Name: "new_tariff", Type: value.KindFloat},
			{Name: "prev_tariff", Type: value.KindFloat},
		},
	})
	tariffs.MustAppend(table.Row{value.String("Germany"), value.Float(0.10), value.Float(0.05)})
	tariffs.MustAppend(table.Row{value.String("France"), value.Float(0.08), value.Float(0.08)})
	e.Register(tariffs)

	nulls := table.New(table.Schema{
		Name: "nullish",
		Columns: []table.Column{
			{Name: "k", Type: value.KindInt},
			{Name: "v", Type: value.KindFloat},
		},
	})
	nulls.MustAppend(table.Row{value.Int(1), value.Float(10)})
	nulls.MustAppend(table.Row{value.Int(2), value.Null()})
	nulls.MustAppend(table.Row{value.Int(3), value.Float(30)})
	e.Register(nulls)

	return e
}

func mustQuery(t *testing.T, e *Engine, sql string) *table.Table {
	t.Helper()
	out, err := e.Query(sql)
	if err != nil {
		t.Fatalf("Query(%q) failed: %v", sql, err)
	}
	return out
}

func TestSelectStar(t *testing.T) {
	e := testEngine(t)
	out := mustQuery(t, e, "SELECT * FROM procurement")
	if out.NumRows() != 6 || out.NumCols() != 5 {
		t.Fatalf("got %dx%d, want 6x5", out.NumRows(), out.NumCols())
	}
	if out.Schema.Columns[0].Name != "id" {
		t.Errorf("first column = %q, want id", out.Schema.Columns[0].Name)
	}
}

func TestWhereFilter(t *testing.T) {
	e := testEngine(t)
	out := mustQuery(t, e, "SELECT item FROM procurement WHERE country = 'Germany' AND price > 500")
	if out.NumRows() != 2 {
		t.Fatalf("got %d rows, want 2", out.NumRows())
	}
}

func TestProjectionExpressionsAndAliases(t *testing.T) {
	e := testEngine(t)
	out := mustQuery(t, e, "SELECT item, price * 1.1 AS taxed FROM procurement WHERE id = 1")
	if out.NumRows() != 1 {
		t.Fatalf("rows = %d, want 1", out.NumRows())
	}
	if out.Schema.Columns[1].Name != "taxed" {
		t.Errorf("alias = %q, want taxed", out.Schema.Columns[1].Name)
	}
	got := out.At(0, 1).FloatVal()
	if got < 1320.5 || got > 1320.6 {
		t.Errorf("taxed = %v, want ~1320.55", got)
	}
}

func TestOrderByAndLimit(t *testing.T) {
	e := testEngine(t)
	out := mustQuery(t, e, "SELECT item, price FROM procurement ORDER BY price DESC LIMIT 2")
	if out.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", out.NumRows())
	}
	if out.At(0, 0).StringVal() != "microscope" {
		t.Errorf("top row = %v, want microscope", out.At(0, 0))
	}
	if out.At(1, 0).StringVal() != "laptop" {
		t.Errorf("second row = %v, want laptop", out.At(1, 0))
	}
}

func TestOrderByOrdinalAndAlias(t *testing.T) {
	e := testEngine(t)
	out := mustQuery(t, e, "SELECT item, price AS p FROM procurement ORDER BY 2 ASC LIMIT 1")
	if out.At(0, 0).StringVal() != "beaker" {
		t.Errorf("cheapest = %v, want beaker", out.At(0, 0))
	}
	out = mustQuery(t, e, "SELECT item, price AS p FROM procurement ORDER BY p ASC LIMIT 1")
	if out.At(0, 0).StringVal() != "beaker" {
		t.Errorf("cheapest via alias = %v, want beaker", out.At(0, 0))
	}
}

func TestOffset(t *testing.T) {
	e := testEngine(t)
	out := mustQuery(t, e, "SELECT id FROM procurement ORDER BY id LIMIT 2 OFFSET 3")
	if out.NumRows() != 2 || out.At(0, 0).IntVal() != 4 {
		t.Fatalf("offset result wrong: %v", out.Render(-1))
	}
}

func TestGroupByAggregates(t *testing.T) {
	e := testEngine(t)
	out := mustQuery(t, e, `
		SELECT country, COUNT(*) AS n, SUM(price) AS total, AVG(price) AS mean
		FROM procurement GROUP BY country ORDER BY country`)
	if out.NumRows() != 3 {
		t.Fatalf("groups = %d, want 3", out.NumRows())
	}
	// France: beaker 12.25 + pipette 45.00
	if out.At(0, 0).StringVal() != "France" || out.At(0, 1).IntVal() != 2 {
		t.Errorf("France row wrong: %v", out.Row(0))
	}
	if got := out.At(0, 2).FloatVal(); got != 57.25 {
		t.Errorf("France total = %v, want 57.25", got)
	}
}

func TestHaving(t *testing.T) {
	e := testEngine(t)
	out := mustQuery(t, e, `
		SELECT country, COUNT(*) AS n FROM procurement
		GROUP BY country HAVING COUNT(*) >= 2 ORDER BY country`)
	if out.NumRows() != 2 {
		t.Fatalf("groups = %d, want 2 (France, Germany)", out.NumRows())
	}
}

func TestGlobalAggregateOnEmptyInput(t *testing.T) {
	e := testEngine(t)
	out := mustQuery(t, e, "SELECT COUNT(*) AS n, SUM(price) AS s FROM procurement WHERE price > 1e9")
	if out.NumRows() != 1 {
		t.Fatalf("rows = %d, want 1", out.NumRows())
	}
	if out.At(0, 0).IntVal() != 0 {
		t.Errorf("COUNT(*) = %v, want 0", out.At(0, 0))
	}
	if !out.At(0, 1).IsNull() {
		t.Errorf("SUM over empty = %v, want NULL", out.At(0, 1))
	}
}

func TestCountDistinct(t *testing.T) {
	e := testEngine(t)
	out := mustQuery(t, e, "SELECT COUNT(DISTINCT country) AS c FROM procurement")
	if out.At(0, 0).IntVal() != 3 {
		t.Errorf("distinct countries = %v, want 3", out.At(0, 0))
	}
}

func TestAggregatesIgnoreNulls(t *testing.T) {
	e := testEngine(t)
	out := mustQuery(t, e, "SELECT COUNT(v) AS c, AVG(v) AS a, MIN(v) AS lo, MAX(v) AS hi FROM nullish")
	r := out.Row(0)
	if r[0].IntVal() != 2 {
		t.Errorf("COUNT(v) = %v, want 2", r[0])
	}
	if r[1].FloatVal() != 20 {
		t.Errorf("AVG(v) = %v, want 20", r[1])
	}
	if r[2].FloatVal() != 10 || r[3].FloatVal() != 30 {
		t.Errorf("MIN/MAX = %v/%v, want 10/30", r[2], r[3])
	}
}

func TestMedianAndStddev(t *testing.T) {
	e := testEngine(t)
	out := mustQuery(t, e, "SELECT MEDIAN(price) AS m FROM procurement")
	// prices sorted: 12.25, 45, 300, 800, 999.99, 1200.50 → median (300+800)/2
	if got := out.At(0, 0).FloatVal(); got != 550 {
		t.Errorf("median = %v, want 550", got)
	}
	out = mustQuery(t, e, "SELECT STDDEV(v) AS s FROM nullish")
	got := out.At(0, 0).FloatVal()
	// values 10, 30 → sample stddev = sqrt(200) ≈ 14.1421
	if got < 14.14 || got > 14.15 {
		t.Errorf("stddev = %v, want ~14.142", got)
	}
}

func TestInnerJoin(t *testing.T) {
	e := testEngine(t)
	out := mustQuery(t, e, `
		SELECT p.item, p.price, t.new_tariff
		FROM procurement AS p JOIN tariffs AS t ON p.country = t.country
		ORDER BY p.id`)
	// USA has no tariff row → 5 rows.
	if out.NumRows() != 5 {
		t.Fatalf("rows = %d, want 5", out.NumRows())
	}
}

func TestLeftJoinPadsNulls(t *testing.T) {
	e := testEngine(t)
	out := mustQuery(t, e, `
		SELECT p.item, t.new_tariff
		FROM procurement AS p LEFT JOIN tariffs AS t ON p.country = t.country
		ORDER BY p.id`)
	if out.NumRows() != 6 {
		t.Fatalf("rows = %d, want 6", out.NumRows())
	}
	// laptop (USA) must appear with NULL tariff.
	found := false
	for ri := range out.NumRows() {
		r := out.Row(ri)
		if r[0].StringVal() == "laptop" {
			found = true
			if !r[1].IsNull() {
				t.Errorf("laptop tariff = %v, want NULL", r[1])
			}
		}
	}
	if !found {
		t.Error("laptop row missing from LEFT JOIN result")
	}
}

func TestJoinUsing(t *testing.T) {
	e := testEngine(t)
	out := mustQuery(t, e, `
		SELECT p.item FROM procurement AS p JOIN tariffs AS t USING (country) ORDER BY p.id`)
	if out.NumRows() != 5 {
		t.Fatalf("rows = %d, want 5", out.NumRows())
	}
}

func TestCrossJoin(t *testing.T) {
	e := testEngine(t)
	out := mustQuery(t, e, "SELECT * FROM tariffs CROSS JOIN nullish")
	if out.NumRows() != 6 { // 2 × 3
		t.Fatalf("rows = %d, want 6", out.NumRows())
	}
}

func TestNonEquiJoin(t *testing.T) {
	e := testEngine(t)
	out := mustQuery(t, e, `
		SELECT p.item FROM procurement AS p JOIN tariffs AS t ON p.price > 1000 AND p.country = t.country`)
	if out.NumRows() != 1 || out.At(0, 0).StringVal() != "microscope" {
		t.Fatalf("non-equi join wrong: %v", out.Render(-1))
	}
}

func TestTariffScenarioQuery(t *testing.T) {
	// The paper's running example (§3.6): impact relative to previous tariff.
	e := testEngine(t)
	out := mustQuery(t, e, `
		SELECT AVG(p.price * (1 + (t.new_tariff - t.prev_tariff))) AS new_avg_cost
		FROM procurement AS p JOIN tariffs AS t ON p.country = t.country
		WHERE t.country = 'Germany'`)
	got := out.At(0, 0).FloatVal()
	// (1200.5+800+300)/3 = 766.8333; ×1.05 = 805.175
	if got < 805.17 || got > 805.18 {
		t.Errorf("new_avg_cost = %v, want ~805.175", got)
	}
}

func TestSubqueryInFrom(t *testing.T) {
	e := testEngine(t)
	out := mustQuery(t, e, `
		SELECT AVG(p) AS a FROM (SELECT price AS p FROM procurement WHERE country = 'France') AS sub`)
	if got := out.At(0, 0).FloatVal(); got != 28.625 {
		t.Errorf("avg = %v, want 28.625", got)
	}
}

func TestUnionAll(t *testing.T) {
	e := testEngine(t)
	out := mustQuery(t, e, `
		SELECT country FROM tariffs UNION ALL SELECT country FROM tariffs`)
	if out.NumRows() != 4 {
		t.Fatalf("rows = %d, want 4", out.NumRows())
	}
}

func TestDistinct(t *testing.T) {
	e := testEngine(t)
	out := mustQuery(t, e, "SELECT DISTINCT country FROM procurement ORDER BY country")
	if out.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", out.NumRows())
	}
}

func TestCaseExpression(t *testing.T) {
	e := testEngine(t)
	out := mustQuery(t, e, `
		SELECT item, CASE WHEN price > 500 THEN 'expensive' ELSE 'cheap' END AS bucket
		FROM procurement ORDER BY id LIMIT 3`)
	if out.At(0, 1).StringVal() != "expensive" || out.At(2, 1).StringVal() != "cheap" {
		t.Errorf("case buckets wrong: %v", out.Render(-1))
	}
}

func TestCaseWithOperand(t *testing.T) {
	e := testEngine(t)
	out := mustQuery(t, e, `
		SELECT CASE country WHEN 'Germany' THEN 1 WHEN 'France' THEN 2 ELSE 0 END AS code
		FROM procurement ORDER BY id`)
	if out.At(0, 0).IntVal() != 1 || out.At(2, 0).IntVal() != 2 || out.At(3, 0).IntVal() != 0 {
		t.Errorf("operand case wrong: %v", out.Render(-1))
	}
}

func TestBetweenInLike(t *testing.T) {
	e := testEngine(t)
	out := mustQuery(t, e, "SELECT item FROM procurement WHERE price BETWEEN 100 AND 1000 ORDER BY id")
	if out.NumRows() != 3 {
		t.Fatalf("between rows = %d, want 3", out.NumRows())
	}
	out = mustQuery(t, e, "SELECT item FROM procurement WHERE country IN ('France', 'USA') ORDER BY id")
	if out.NumRows() != 3 {
		t.Fatalf("in rows = %d, want 3", out.NumRows())
	}
	out = mustQuery(t, e, "SELECT item FROM procurement WHERE item LIKE '%scope'")
	if out.NumRows() != 1 || out.At(0, 0).StringVal() != "microscope" {
		t.Fatalf("like rows wrong: %v", out.Render(-1))
	}
	out = mustQuery(t, e, "SELECT item FROM procurement WHERE item NOT LIKE '%e%' ORDER BY id")
	for ri := range out.NumRows() {
		r := out.Row(ri)
		if strings.Contains(r[0].StringVal(), "e") {
			t.Errorf("NOT LIKE leaked %v", r[0])
		}
	}
}

func TestIsNullPredicates(t *testing.T) {
	e := testEngine(t)
	out := mustQuery(t, e, "SELECT k FROM nullish WHERE v IS NULL")
	if out.NumRows() != 1 || out.At(0, 0).IntVal() != 2 {
		t.Fatalf("IS NULL wrong: %v", out.Render(-1))
	}
	out = mustQuery(t, e, "SELECT k FROM nullish WHERE v IS NOT NULL ORDER BY k")
	if out.NumRows() != 2 {
		t.Fatalf("IS NOT NULL wrong: %v", out.Render(-1))
	}
}

func TestNullComparisonIsNotTrue(t *testing.T) {
	e := testEngine(t)
	// v = NULL never matches via '='.
	out := mustQuery(t, e, "SELECT k FROM nullish WHERE v = NULL")
	if out.NumRows() != 0 {
		t.Fatalf("= NULL matched %d rows, want 0", out.NumRows())
	}
}

func TestScalarFunctions(t *testing.T) {
	e := testEngine(t)
	out := mustQuery(t, e, "SELECT ROUND(3.14159, 2) AS r, UPPER('abc') AS u, COALESCE(NULL, 7) AS c, LENGTH('hello') AS l")
	r := out.Row(0)
	if r[0].FloatVal() != 3.14 {
		t.Errorf("ROUND = %v", r[0])
	}
	if r[1].StringVal() != "ABC" {
		t.Errorf("UPPER = %v", r[1])
	}
	if r[2].IntVal() != 7 {
		t.Errorf("COALESCE = %v", r[2])
	}
	if r[3].IntVal() != 5 {
		t.Errorf("LENGTH = %v", r[3])
	}
}

func TestCast(t *testing.T) {
	e := testEngine(t)
	out := mustQuery(t, e, "SELECT CAST('42' AS INT) AS i, CAST(3 AS VARCHAR) AS s, CAST('2020-01-15' AS DATE) AS d")
	r := out.Row(0)
	if r[0].IntVal() != 42 {
		t.Errorf("cast int = %v", r[0])
	}
	if r[1].StringVal() != "3" {
		t.Errorf("cast string = %v", r[1])
	}
	if r[2].Kind() != value.KindTime {
		t.Errorf("cast date kind = %v", r[2].Kind())
	}
}

func TestDateFunctions(t *testing.T) {
	e := testEngine(t)
	out := mustQuery(t, e, "SELECT YEAR(CAST('2021-07-04' AS DATE)) AS y, MONTH(CAST('2021-07-04' AS DATE)) AS m")
	if out.At(0, 0).IntVal() != 2021 || out.At(0, 1).IntVal() != 7 {
		t.Errorf("date parts wrong: %v", out.Row(0))
	}
}

func TestErrorUnknownTable(t *testing.T) {
	e := testEngine(t)
	_, err := e.Query("SELECT * FROM missing_table")
	if err == nil || !strings.Contains(err.Error(), "does not exist") {
		t.Fatalf("err = %v, want unknown-table error", err)
	}
	if !strings.Contains(err.Error(), "procurement") {
		t.Errorf("error should list known tables: %v", err)
	}
}

func TestErrorUnknownColumnListsCandidates(t *testing.T) {
	e := testEngine(t)
	_, err := e.Query("SELECT wrong_col FROM procurement")
	if err == nil || !strings.Contains(err.Error(), "available columns") {
		t.Fatalf("err = %v, want column-not-found with candidates", err)
	}
}

func TestErrorAmbiguousColumn(t *testing.T) {
	e := testEngine(t)
	_, err := e.Query("SELECT country FROM procurement JOIN tariffs ON procurement.country = tariffs.country")
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("err = %v, want ambiguity error", err)
	}
}

func TestErrorNonNumericArithmetic(t *testing.T) {
	e := testEngine(t)
	_, err := e.Query("SELECT item + 1 FROM procurement")
	if err == nil || !strings.Contains(err.Error(), "not numeric") {
		t.Fatalf("err = %v, want non-numeric error", err)
	}
}

func TestErrorDivisionByZero(t *testing.T) {
	e := testEngine(t)
	_, err := e.Query("SELECT price / 0 FROM procurement")
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v, want division by zero", err)
	}
}

func TestErrorSyntax(t *testing.T) {
	e := testEngine(t)
	for _, bad := range []string{
		"SELEC * FROM procurement",
		"SELECT FROM procurement",
		"SELECT * FROM",
		"SELECT * FROM procurement WHERE",
		"SELECT * procurement",
	} {
		if _, err := e.Query(bad); err == nil {
			t.Errorf("Query(%q) should fail", bad)
		}
	}
}

func TestErrorAggregateInWhere(t *testing.T) {
	e := testEngine(t)
	_, err := e.Query("SELECT * FROM procurement WHERE SUM(price) > 10")
	if err == nil {
		t.Fatal("aggregate in WHERE should error")
	}
}

func TestParseRoundTrip(t *testing.T) {
	// Statement → String() → Parse again must succeed and produce the same
	// rendering (idempotent round trip).
	stmts := []string{
		"SELECT a, b AS x FROM t WHERE a > 1 GROUP BY a HAVING COUNT(*) > 2 ORDER BY a DESC LIMIT 5",
		"SELECT * FROM t1 JOIN t2 ON t1.id = t2.id LEFT JOIN t3 ON t2.k = t3.k",
		"SELECT CASE WHEN x > 0 THEN 'p' ELSE 'n' END AS sign FROM t",
		"SELECT COUNT(DISTINCT c) FROM t",
		"SELECT CAST(x AS DOUBLE) FROM t WHERE y BETWEEN 1 AND 2 AND z IN (1, 2, 3)",
	}
	for _, s := range stmts {
		p1, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		r1 := p1.String()
		p2, err := Parse(r1)
		if err != nil {
			t.Fatalf("reparse of %q (from %q): %v", r1, s, err)
		}
		if r2 := p2.String(); r1 != r2 {
			t.Errorf("render not idempotent:\n 1: %s\n 2: %s", r1, r2)
		}
	}
}

func TestQuotedIdentifiers(t *testing.T) {
	e := NewEngine()
	tb := table.New(table.Schema{
		Name:    "weird",
		Columns: []table.Column{{Name: "my col", Type: value.KindInt}},
	})
	tb.MustAppend(table.Row{value.Int(9)})
	e.Register(tb)
	out := mustQuery(t, e, `SELECT "my col" FROM weird`)
	if out.At(0, 0).IntVal() != 9 {
		t.Fatalf("quoted ident failed: %v", out.Render(-1))
	}
}

func TestStringEscapes(t *testing.T) {
	e := testEngine(t)
	out := mustQuery(t, e, "SELECT 'it''s' AS s")
	if out.At(0, 0).StringVal() != "it's" {
		t.Fatalf("escape wrong: %q", out.At(0, 0).StringVal())
	}
}

func TestFromlessSelect(t *testing.T) {
	e := testEngine(t)
	out := mustQuery(t, e, "SELECT 1 + 2 AS three")
	if out.At(0, 0).IntVal() != 3 {
		t.Fatalf("1+2 = %v", out.At(0, 0))
	}
}

func TestFirstLastAggregates(t *testing.T) {
	e := testEngine(t)
	out := mustQuery(t, e, `
		SELECT FIRST(price) AS f, LAST(price) AS l
		FROM (SELECT price FROM procurement ORDER BY id) AS ordered`)
	if out.At(0, 0).FloatVal() != 1200.50 {
		t.Errorf("FIRST = %v, want 1200.50", out.At(0, 0))
	}
	if out.At(0, 1).FloatVal() != 300.00 {
		t.Errorf("LAST = %v, want 300.00", out.At(0, 1))
	}
}

func TestRegisterDropNames(t *testing.T) {
	e := NewEngine()
	tb := table.New(table.Schema{Name: "T1", Columns: []table.Column{{Name: "a", Type: value.KindInt}}})
	e.Register(tb)
	if _, ok := e.Table("t1"); !ok {
		t.Fatal("case-insensitive lookup failed")
	}
}

// TestWhereAllocsFlatInRows holds that a WHERE filter keeps its survivors'
// row headers in one slice of exactly their size: a filtered SELECT makes
// as many allocations over 10 rows as over 10 000.
func TestWhereAllocsFlatInRows(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	sel, err := Parse(`SELECT a, x FROM t WHERE k = 0`)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		tb := table.New(table.Schema{Name: "t", Columns: []table.Column{
			{Name: "k", Type: value.KindInt}, {Name: "a", Type: value.KindString}, {Name: "x", Type: value.KindFloat},
		}})
		for i := 0; i < n; i++ {
			tb.MustAppend(table.Row{value.Int(int64(i % 2)), value.String("site"), value.Float(float64(i))})
		}
		e := NewEngine()
		e.Register(tb)
		return testing.AllocsPerRun(10, func() {
			out, err := e.Exec(sel)
			if err != nil || out.NumRows() != n/2 {
				t.Fatalf("filter of %d rows: %v, %d rows", n, err, out.NumRows())
			}
		})
	}
	if small, large := allocs(10), allocs(10_000); small != large {
		t.Errorf("a filtered SELECT allocates %v times over 10 rows, %v over 10 000", small, large)
	}
}
