package core_test

import (
	"context"
	"hash/maphash"
	"runtime"
	"testing"
	"unsafe"

	"pneuma/internal/core"
	"pneuma/internal/docs"
	"pneuma/internal/harness"
	"pneuma/internal/kramabench"
	"pneuma/internal/llm"
	"pneuma/internal/table"
	"pneuma/internal/value"
)

var fingerprintSeed = maphash.MakeSeed()

// fingerprint hashes everything a materializing turn could write on a source
// table: schema name, column names and types, and every cell's kind and text.
func fingerprint(t *table.Table) uint64 {
	var h maphash.Hash
	h.SetSeed(fingerprintSeed)
	field := func(s string) {
		h.WriteString(s)
		h.WriteByte(0)
	}
	field(t.Schema.Name)
	for _, c := range t.Schema.Columns {
		field(c.Name)
		h.WriteByte(byte(c.Type))
	}
	for ri := range t.NumRows() {
		row := t.Row(ri)
		h.WriteByte(byte(len(row)))
		for _, v := range row {
			h.WriteByte(byte(v.Kind()))
			field(v.String())
		}
	}
	return h.Sum64()
}

func fingerprints(corpus map[string]*table.Table) map[string]uint64 {
	out := make(map[string]uint64, len(corpus))
	for name, t := range corpus {
		out[name] = fingerprint(t)
	}
	return out
}

// TestMaterializeLeavesSourcesUntouched is the guard that makes row sharing
// safe: corpus tables are owned by the Service and read by every session, and
// a materialized table points at their rows. Every kramabench conversation —
// base, join, parse, interpolate, project, the SQL in Q, the repair loop —
// must leave every source table exactly as it found it, under dynamic
// planning and under the static pipeline.
func TestMaterializeLeavesSourcesUntouched(t *testing.T) {
	datasets := []struct {
		name      string
		corpus    map[string]*table.Table
		questions func(map[string]*table.Table) []kramabench.Question
	}{
		{"archaeology", kramabench.Archaeology(), kramabench.ArchaeologyQuestions},
		{"environment", kramabench.Environment(), kramabench.EnvironmentQuestions},
	}
	for _, ds := range datasets {
		questions := ds.questions(ds.corpus)
		before := fingerprints(ds.corpus)
		for _, dynamic := range []bool{true, false} {
			sys, err := harness.NewSeekerSystem(ds.corpus, &core.Config{DynamicPlanning: &dynamic})
			if err != nil {
				t.Fatal(err)
			}
			user := llm.NewSimModel(llm.WithProfile("gpt-4o"))
			materialized := 0
			for _, q := range questions {
				res, err := harness.RunConversation(context.Background(), sys, q, user, harness.DefaultMaxTurns)
				if err != nil {
					t.Fatalf("%s %s dynamic=%v: %v", ds.name, q.ID, dynamic, err)
				}
				if res.FinalAnswer != "" {
					materialized++
				}
			}
			if materialized == 0 {
				t.Fatalf("%s dynamic=%v: no conversation produced an answer, so nothing was materialized", ds.name, dynamic)
			}
			for name, got := range fingerprints(ds.corpus) {
				if got != before[name] {
					t.Errorf("%s dynamic=%v: source table %s changed while sessions materialized from it", ds.name, dynamic, name)
				}
			}
			sys.Seeker().Close()
		}
	}
}

// TestBaseOnlyPlanLeavesSourceName: a plan with no step after base hands
// back the source's rows under the spec's name, on a header of its own.
func TestBaseOnlyPlanLeavesSourceName(t *testing.T) {
	env := kramabench.Environment()
	src := env["stations"]
	before := fingerprint(src)
	plan := llm.MaterializePlan{Steps: []llm.MatStep{{Op: "base", Table: "stations"}}}
	out, err := core.NewMaterializer(nil, 0).ExecutePlan(plan, llm.TableSpec{Name: "target"}, envDocs(env, "stations"))
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema.Name != "target" || out.NumRows() != src.NumRows() {
		t.Fatalf("materialized %s with %d rows, want target with %d", out.Schema.Name, out.NumRows(), src.NumRows())
	}
	if src.Schema.Name != "stations" || fingerprint(src) != before {
		t.Fatalf("base-only plan wrote its source table (now named %q)", src.Schema.Name)
	}
}

func envDocs(env map[string]*table.Table, names ...string) []docs.Document {
	out := make([]docs.Document, len(names))
	for i, n := range names {
		out[i] = docs.TableDocument(env[n])
	}
	return out
}

// materializeAllocBudget caps what one materialization may allocate, as a
// multiple of the bytes a row-major copy of its output would hold (row
// headers + 32-byte cells). The plan below — base → join → parse_dates →
// interpolate → project over two Environment tables, 11.7k rows, 19 columns
// after the join — measured 27.5× when base, join and interpolate
// deep-copied the tables they were handed, 18.2× with row sharing and 10.0×
// once a projection was a header. With column vectors it measures 1.72×:
// the join's row numbers and its typed select-list columns, one rebuilt
// column each for the parsed dates and the interpolated values, and a
// projection that copies no cell. The budget is the measured 1.72 + 20%: a
// copy of the joined table, or of both join inputs, fails here rather than
// waiting for the benchmark.
const materializeAllocBudget = 2.1

func TestMaterializeAllocsWithinBudget(t *testing.T) {
	env := kramabench.Environment()
	retrieved := envDocs(env, "water_nitrate", "stations")
	plan := llm.MaterializePlan{Steps: []llm.MatStep{
		{Op: "base", Table: "water_nitrate"},
		{Op: "join", Table: "stations", Arg: "station_id=station_id"},
		{Op: "parse_dates", Column: "year"},
		{Op: "interpolate", Column: "nitrate_mgl", Arg: "year"},
		{Op: "project", Arg: "station_name, region, year, nitrate_mgl"},
	}}
	spec := llm.TableSpec{Name: "target"}
	m := core.NewMaterializer(nil, 0)

	var out *table.Table
	run := func() {
		var err error
		if out, err = m.ExecutePlan(plan, spec, retrieved); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: one-time initialisation is not the plan's cost
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)

	if out.NumRows() != env["water_nitrate"].NumRows() || out.NumCols() != 4 {
		t.Fatalf("materialized %d×%d, want %d×4", out.NumRows(), out.NumCols(), env["water_nitrate"].NumRows())
	}
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	rowBytes := unsafe.Sizeof(table.Row{}) + uintptr(out.NumCols())*unsafe.Sizeof(value.Value{})
	own := float64(uintptr(out.NumRows()) * rowBytes)
	if ratio := perRun / own; ratio > materializeAllocBudget {
		t.Fatalf("materializing allocates %.0f KB for a %.0f KB table: %.1f× its size, budget is %.1f×",
			perRun/1024, own/1024, ratio, materializeAllocBudget)
	} else {
		t.Logf("materializing allocates %.0f KB for a %.0f KB table: %.2f× its size", perRun/1024, own/1024, ratio)
	}
}
