// Package pneuma_test hosts the ablation benches for the paper's design
// decisions — dynamic planning (§3.5), context specialization (§3.1), the
// action cap (§3.2) and the retrieval mode (§3.3) — plus micro-benchmarks
// for the substrates (SQL engine, profiling, one Seeker turn), which report
// real per-operation numbers. The paper's tables and figures themselves are
// printed by cmd/pneuma-bench and checked byte for byte by its
// TestPaperGolden; the retrieval stack is measured by benchmark/ (see
// BENCHMARK.json).
package pneuma_test

import (
	"context"
	"fmt"
	"testing"

	"pneuma/internal/baselines"
	"pneuma/internal/harness"
	"pneuma/internal/kramabench"
	"pneuma/internal/llm"
	"pneuma/internal/retriever"
	"pneuma/internal/sqlengine"

	"pneuma/internal/core"
)

// --- Ablation benches ------------------------------------------------------

// ablationQuestions bounds the per-config ablation sweeps: the first 6
// archaeology questions cover the easy, dirty-data, cross-table and
// interpolation axes, which is what the ablated capabilities differ on.
const ablationQuestions = 6

// seekerConvergencePct runs a seeker-only archaeology convergence sweep
// under a config and returns (convergence %, accuracy %).
func seekerConvergencePct(b *testing.B, cfg *core.Config) (float64, float64) {
	b.Helper()
	corpus := kramabench.Archaeology()
	questions := kramabench.ArchaeologyQuestions(corpus)[:ablationQuestions]
	sys, err := harness.NewSeekerSystem(corpus, cfg)
	if err != nil {
		b.Fatal(err)
	}
	sim := llm.NewSimModel(llm.WithProfile("gpt-4o"))
	sum, err := harness.RunConvergence(context.Background(), sys, questions, sim, harness.DefaultMaxTurns)
	if err != nil {
		b.Fatal(err)
	}
	correct := 0
	for i, r := range sum.Results {
		if questions[i].AnswersMatch(r.FinalAnswer) {
			correct++
		}
	}
	return sum.Pct, 100 * float64(correct) / float64(len(questions))
}

// BenchmarkAblationDynamicVsStatic compares conductor-style planning with
// the fixed static pipeline (§3.5).
func BenchmarkAblationDynamicVsStatic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dynConv, dynAcc := seekerConvergencePct(b, nil)
		off := false
		statConv, statAcc := seekerConvergencePct(b, &core.Config{DynamicPlanning: &off})
		if i == 0 {
			b.Logf("dynamic: conv=%.1f%% acc=%.1f%% | static pipeline: conv=%.1f%% acc=%.1f%%",
				dynConv, dynAcc, statConv, statAcc)
		}
	}
}

// BenchmarkAblationContextSpecialization compares specialized per-component
// contexts with one merged mega-context (§3.1), reporting token blow-up.
func BenchmarkAblationContextSpecialization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		corpus := kramabench.Archaeology()
		questions := kramabench.ArchaeologyQuestions(corpus)[:ablationQuestions]
		sim := llm.NewSimModel(llm.WithProfile("gpt-4o"))

		run := func(specialized bool) (float64, int) {
			cfg := &core.Config{Specialized: &specialized}
			sys, err := harness.NewSeekerSystem(corpus, cfg)
			if err != nil {
				b.Fatal(err)
			}
			sum, err := harness.RunConvergence(context.Background(), sys, questions, sim, harness.DefaultMaxTurns)
			if err != nil {
				b.Fatal(err)
			}
			return sum.Pct, sys.Seeker().Meter().Snapshot().Total.InTokens / len(questions)
		}
		specConv, specTok := run(true)
		megaConv, megaTok := run(false)
		if i == 0 {
			b.Logf("specialized: conv=%.1f%% avgIn=%d tok | merged context: conv=%.1f%% avgIn=%d tok (%.1fx tokens)",
				specConv, specTok, megaConv, megaTok, float64(megaTok)/float64(specTok))
		}
	}
}

// BenchmarkAblationActionCap sweeps the conductor's per-turn action cap i
// (paper: i = 5).
func BenchmarkAblationActionCap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var lines string
		for _, cap := range []int{1, 3, 5} {
			conv, acc := seekerConvergencePct(b, &core.Config{MaxActions: cap})
			lines += fmt.Sprintf("i=%d: conv=%.1f%% acc=%.1f%%  ", cap, conv, acc)
		}
		if i == 0 {
			b.Log(lines)
		}
	}
}

// BenchmarkAblationRetrievalMode compares the hybrid index with its vector-
// only and BM25-only halves (§3.3).
func BenchmarkAblationRetrievalMode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var lines string
		for _, m := range []struct {
			name string
			mode retriever.Mode
		}{
			{"hybrid", retriever.ModeHybrid},
			{"vector-only", retriever.ModeVectorOnly},
			{"bm25-only", retriever.ModeBM25Only},
		} {
			conv, acc := seekerConvergencePct(b, &core.Config{Index: []retriever.Option{retriever.WithMode(m.mode)}})
			lines += fmt.Sprintf("%s: conv=%.1f%% acc=%.1f%%  ", m.name, conv, acc)
		}
		if i == 0 {
			b.Log(lines)
		}
	}
}

// --- Substrate micro-benchmarks --------------------------------------------

// BenchmarkSQLFilteredAggregate measures a filtered aggregate over the 42k
// row soil table.
func BenchmarkSQLFilteredAggregate(b *testing.B) {
	corpus := kramabench.Archaeology()
	eng := sqlengine.NewEngine()
	eng.Register(corpus["soil_samples"])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query("SELECT AVG(k_ppm) FROM soil_samples WHERE region = 'Malta'"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSQLHashJoin measures the hash join of a measurement table with
// the stations registry.
func BenchmarkSQLHashJoin(b *testing.B) {
	corpus := kramabench.Environment()
	eng := sqlengine.NewEngine()
	eng.Register(corpus["air_pm25"])
	eng.Register(corpus["stations"])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := eng.Query(`SELECT AVG(pm25_ugm3) FROM air_pm25 AS a
			JOIN stations AS s ON a.station_id = s.station_id
			WHERE s.region = 'North Basin'`)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeekerTurn measures one full conductor turn (plan → retrieve →
// state → materialize → execute → respond) end to end, with its bytes and
// allocations.
func BenchmarkSeekerTurn(b *testing.B) {
	corpus := kramabench.Archaeology()
	seeker, err := core.New(context.Background(), core.Config{}, corpus, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess := seeker.NewSession("bench")
		if _, err := sess.Send(context.Background(), "What is the average organic matter percentage for soil samples in the Malta region?"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFTSRespond measures the static baseline's per-turn cost.
func BenchmarkFTSRespond(b *testing.B) {
	corpus := kramabench.Archaeology()
	fts := baselines.NewFTS(corpus)
	conv := fts.StartConversation()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conv.Respond(context.Background(), "potassium levels in Malta soil samples"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatasetGeneration measures corpus generation (both datasets).
func BenchmarkDatasetGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if got := len(kramabench.Archaeology()); got != 5 {
			b.Fatal("bad archaeology corpus")
		}
		if got := len(kramabench.Environment()); got != 36 {
			b.Fatal("bad environment corpus")
		}
	}
}

// BenchmarkProfile measures a cold profile of a wide table: each iteration
// profiles a fresh projection of every column, which shares the vectors of
// a table nothing has profiled, so no iteration reads a cached profile.
func BenchmarkProfile(b *testing.B) {
	corpus := kramabench.Archaeology()
	soil := corpus["soil_samples"]
	all := make([]int, soil.NumCols())
	for c := range all {
		all[c] = c
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := soil.Project(all).BuildProfile()
		if len(p.Columns) != 16 {
			b.Fatal("bad profile")
		}
	}
}
