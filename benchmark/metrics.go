package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// spec names one reported metric. The two lists below are the benchmark's
// whole vocabulary; BENCHMARK.json repeats them and a test keeps the two
// in step.
type spec struct{ name, unit string }

var endToEnd = []spec{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"request_p95_us", "us"},
	{"requests_per_s", "1/s"},
	{"cpu_us_per_request", "us"},
	{"alloc_kb_per_request", "KB"},
	{"quality_ratio", "ratio"},
}

// Per-layer metrics are medians in µs unless the name says otherwise. Layer
// names are the repo's packages.
var perLayer = []spec{
	{"request.p50_us", "us"},
	{"server.search.p50_us", "us"},
	{"server.search.self_us", "us"},
	{"server.search.response_bytes", "B"},
	{"service.search.self_us", "us"},
	{"service.sched.hold_us_per_req", "us"},
	{"service.sched.queue_wait_us_per_req", "us"},
	{"ir.query.miss.self_us", "us"},
	{"ir.query.hit_us", "us"},
	{"ir.read_after_write.p50_us", "us"},
	{"retriever.search.p50_us", "us"},
	{"retriever.search.self_us", "us"},
	{"retriever.search.allocs_per_op", "count"},
	{"retriever.search.bytes_per_op", "B"},
	{"retriever.search.two_p_speedup_ratio", "ratio"},
	{"retriever.ingest.us_per_table", "us"},
	{"retriever.delete.us_per_doc", "us"},
	{"retriever.arena_mb", "MB"},
	{"retriever.disk.flush_ms", "ms"},
	{"retriever.disk.cold_open_ms", "ms"},
	{"retriever.disk.bytes_per_table", "B"},
	{"embed.query_us", "us"},
	{"embed.table_us", "us"},
	{"hnsw.search_us", "us"},
	{"hnsw.add.us_per_doc", "us"},
	{"hnsw.recall_at_10", "ratio"},
	{"bm25.search_us", "us"},
	{"bm25.add.us_per_doc", "us"},
	{"vecmath.dot_batch.ns_per_cand", "ns"},
	{"vecmath.dot_int8_batch.ns_per_cand", "ns"},
	{"service.add_tables.p50_us", "us"},
	{"service.delete_tables.p50_us", "us"},
	{"core.turn.p50_us", "us"},
	{"core.turn.minus_llm_us", "us"},
	{"core.turns_per_conversation", "count"},
	{"core.actions_per_turn", "count"},
	{"core.ir_actions_per_turn", "count"},
	{"core.materialize_actions_per_turn", "count"},
	{"core.sql_actions_per_turn", "count"},
	{"llm.complete.us_per_turn", "us"},
	{"llm.calls_per_turn", "count"},
	{"llm.tokens_in_per_turn", "count"},
	{"llm.tokens_out_per_turn", "count"},
	{"core.materialize_us", "us"},
	{"sqlengine.query_us", "us"},
	{"table.build_profile_us", "us"},
	{"runtime.mallocs_per_request", "count"},
	{"runtime.gc_cycles_per_1k_requests", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.unattributed_ratio", "ratio"},
}

// values collects measured metrics by name.
type values map[string]float64

// result is the run's last line of output.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric of specs by name with its unit, then the
// result line. A metric that was not measured, or is not a number, is a bug
// in the benchmark and fails the run.
func report(w io.Writer, specs []spec, vals values, c counts) error {
	res := result{Correct: true, Attempted: c.attempted, Failed: c.failed, Metrics: map[string]measured{}}
	for _, s := range specs {
		v, ok := vals[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured (%v)", s.name, v)
		}
		fmt.Fprintf(w, "%-40s %16.6f %s\n", s.name, v, s.unit)
		res.Metrics[s.name] = measured{v, s.unit}
	}
	if len(vals) != len(specs) {
		return fmt.Errorf("%d metrics measured, %d specified", len(vals), len(specs))
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
