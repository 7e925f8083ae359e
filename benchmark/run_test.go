package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests hold the program to.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// runSmall executes one workload at test scale and returns its output and
// decoded result line.
func runSmall(t *testing.T, workload string, seed int64, trace bool) (string, result) {
	t.Helper()
	var out bytes.Buffer
	cfg := config{workload: workload, seed: seed, seconds: 20, trace: trace, small: true, out: &out, traceDir: t.TempDir()}
	if err := execute(cfg); err != nil {
		t.Fatalf("%s trace=%t: %v\n%s", workload, trace, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, lines[len(lines)-1])
	}
	return out.String(), res
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestEveryWorkloadRunsEndToEnd(t *testing.T) {
	spec := loadBenchmarkJSON(t)
	var named []string
	for _, w := range spec.Workloads {
		named = append(named, w.Name)
	}
	sort.Strings(named)
	if strings.Join(named, " ") != strings.Join(workloadNames(), " ") {
		t.Fatalf("BENCHMARK.json names workloads %v, the program has %v", named, workloadNames())
	}
	for _, m := range append(append([]struct{ Name, Unit string }{}, spec.EndToEnd...), spec.PerLayer...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", m.Name)
		}
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel() // timings mean nothing at this scale, and runs share no state
			checkRun(t, w.Name, false, spec.EndToEnd)
			checkRun(t, w.Name, true, spec.PerLayer)
		})
	}
}

// checkRun runs one workload at test scale and holds what it printed to the
// metric list of BENCHMARK.json.
func checkRun(t *testing.T, workload string, trace bool, want []struct{ Name, Unit string }) {
	out, res := runSmall(t, workload, 1, trace)
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", workload, trace, res.Correct, res.Attempted, res.Failed)
	}
	if !strings.Contains(out, "failed=0") || strings.Contains(out, "failed=1") {
		t.Errorf("%s trace=%t: phase counts missing or non-zero:\n%s", workload, trace, out)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s trace=%t printed %d metrics, BENCHMARK.json lists %d", workload, trace, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s trace=%t: metric %s of BENCHMARK.json was not printed", workload, trace, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", workload, m.Name, got.Unit, m.Unit)
		case !trace && got.Value <= 0:
			t.Errorf("%s: end-to-end metric %s is %v; none may be zero", workload, m.Name, got.Value)
		}
	}
	if trace || workload == "seeker-turns" {
		return // seeker-turns checks every pass against the one before it inside the run
	}
	// Equal seeds execute equal work and reproduce the exact metrics.
	_, again := runSmall(t, workload, 1, false)
	if again.Attempted != res.Attempted || again.Metrics["quality_ratio"] != res.Metrics["quality_ratio"] {
		t.Errorf("%s: seed 1 gave %d operations and quality %v, then %d and %v", workload,
			res.Attempted, res.Metrics["quality_ratio"].Value, again.Attempted, again.Metrics["quality_ratio"].Value)
	}
}

func TestBadInvocationsPrintNoResult(t *testing.T) {
	for _, cfg := range []config{
		{workload: "search-miss-2k", seconds: 20},
		{workload: "churn-1k", seconds: 0},
		{workload: "churn-1k", seconds: 61},
	} {
		var out bytes.Buffer
		cfg.out, cfg.small = &out, true
		if err := execute(cfg); err == nil || strings.Contains(out.String(), `"correct"`) {
			t.Errorf("%+v: err=%v, output %q", cfg, err, out.String())
		}
	}
}

func TestReportRefusesAnUnmeasuredMetric(t *testing.T) {
	var out bytes.Buffer
	vals := values{"setup_s": 1}
	if err := report(&out, endToEnd, vals, counts{attempted: 1}); err == nil || strings.Contains(out.String(), `"correct"`) {
		t.Errorf("report accepted %v: %q", vals, out.String())
	}
}
