package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pneuma/internal/core"
	"pneuma/internal/docs"
	"pneuma/internal/kramabench"
	"pneuma/internal/llm"
	"pneuma/internal/table"
)

// chainSources are the Environment tables the plan chains draw on: station
// and reading tables keyed by station_id, region-level statistics keyed by
// region and year, and the water-body registries. chainRows bounds each to
// its first rows (Head shares them), which keeps joins of joins small.
var chainSources = []string{
	"stations", "water_nitrate", "air_pm25", "emissions_energy",
	"coastal_quality", "noise_levels", "lakes", "rivers",
}

const (
	chainRows  = 24
	chainCount = 400
	// chainJoinRows stops a chain from joining once its table is this large.
	chainJoinRows = 2000
)

var chainKinds = []string{"base", "join", "fuzzy_join", "parse_dates", "to_number", "interpolate", "derive", "project"}

// chainGen draws plan steps whose arguments come from the current table's
// schema and from the sources, with about one name in ten wrong so the error
// paths run too.
type chainGen struct {
	rng     *rand.Rand
	sources map[string]*table.Table
	fresh   int
}

func (g *chainGen) wrong() bool { return g.rng.Intn(10) == 0 }

func (g *chainGen) tableName() string {
	if g.wrong() {
		return "no_such_table"
	}
	return chainSources[g.rng.Intn(len(chainSources))]
}

func (g *chainGen) column(t *table.Table) string {
	if t == nil || t.NumCols() == 0 || g.wrong() {
		return "no_such_column"
	}
	return t.Schema.Columns[g.rng.Intn(t.NumCols())].Name
}

// joinKeys prefers a column both sides share, so most joins find rows.
func (g *chainGen) joinKeys(left, right *table.Table) string {
	if left != nil && right != nil && g.rng.Intn(4) > 0 {
		var shared []string
		for _, c := range left.Schema.Columns {
			if right.Schema.ColumnIndex(c.Name) >= 0 {
				shared = append(shared, c.Name)
			}
		}
		if len(shared) > 0 {
			k := shared[g.rng.Intn(len(shared))]
			return k + "=" + k
		}
	}
	return g.column(left) + "=" + g.column(right)
}

func (g *chainGen) step(cur *table.Table) llm.MatStep {
	op := chainKinds[g.rng.Intn(len(chainKinds))]
	if cur == nil && g.rng.Intn(4) > 0 {
		op = "base"
	}
	if (op == "join" || op == "fuzzy_join") && cur != nil && cur.NumRows() > chainJoinRows {
		op = "project"
	}
	switch op {
	case "base":
		return llm.MatStep{Op: op, Table: g.tableName()}
	case "join", "fuzzy_join":
		right := g.tableName()
		return llm.MatStep{Op: op, Table: right, Arg: g.joinKeys(cur, g.sources[right])}
	case "parse_dates", "to_number":
		return llm.MatStep{Op: op, Column: g.column(cur), Lenient: g.rng.Intn(2) == 0}
	case "interpolate":
		return llm.MatStep{Op: op, Column: g.column(cur), Arg: g.column(cur)}
	case "derive":
		name := g.column(cur)
		if g.rng.Intn(2) == 0 {
			g.fresh++
			name = fmt.Sprintf("derived_%d", g.fresh)
		}
		return llm.MatStep{Op: op, Column: name, Arg: fmt.Sprintf("%q * 2 + 1", g.column(cur))}
	default: // project
		n := 1
		if cur != nil {
			n += g.rng.Intn(cur.NumCols())
		}
		cols := make([]string, n)
		for i := range cols {
			cols[i] = g.column(cur)
		}
		return llm.MatStep{Op: op, Arg: strings.Join(cols, ", ")}
	}
}

// TestPlanChainsKeepTheRowRule runs seeded random chains of one to six plan
// steps, every prefix of each through Materializer.ExecutePlan, and then
// checks package table's row rule over all of it: no source table and no
// table a prefix produced has changed since it was fingerprinted, although
// the prefixes share rows with the sources and with each other.
func TestPlanChainsKeepTheRowRule(t *testing.T) {
	env := kramabench.Environment()
	sources := make(map[string]*table.Table, len(chainSources))
	retrieved := make([]docs.Document, 0, len(chainSources))
	for _, name := range chainSources {
		src := env[name].Head(chainRows)
		sources[name] = src
		retrieved = append(retrieved, docs.TableDocument(src))
	}
	before := fingerprints(sources)

	type output struct {
		plan string
		t    *table.Table
		fp   uint64
	}
	var outputs []output
	kinds := make(map[string]int) // step kinds that ran successfully
	failures := 0
	m := core.NewMaterializer(nil, 0)
	g := &chainGen{rng: rand.New(rand.NewSource(1)), sources: sources}
	for c := 0; c < chainCount; c++ {
		var steps []llm.MatStep
		var cur *table.Table
		for n := 1 + g.rng.Intn(6); len(steps) < n; {
			steps = append(steps, g.step(cur))
			plan := llm.MaterializePlan{Steps: append([]llm.MatStep(nil), steps...)}
			out, err := m.ExecutePlan(plan, llm.TableSpec{Name: "target"}, retrieved)
			if err != nil {
				// Every longer prefix stops at the same step.
				failures++
				break
			}
			kinds[steps[len(steps)-1].Op]++
			outputs = append(outputs, output{plan: fmt.Sprint(plan.Steps), t: out, fp: fingerprint(out)})
			cur = out
		}
	}

	for name, got := range fingerprints(sources) {
		if got != before[name] {
			t.Errorf("source table %s changed while plans ran over it", name)
		}
	}
	for _, o := range outputs {
		if fingerprint(o.t) != o.fp {
			t.Errorf("the output of %s changed after later plans ran", o.plan)
		}
	}
	for _, k := range chainKinds {
		if kinds[k] == 0 {
			t.Errorf("no chain ran a %s step successfully: the chains do not cover it", k)
		}
	}
	if failures == 0 {
		t.Error("no prefix failed: the error paths did not run")
	}
	t.Logf("%d prefixes materialized, %d failed; successful steps by kind: %v", len(outputs), failures, kinds)
}
