// Command benchmark is the repo's referee: one fixed-work workload per run,
// on one P, checked against an oracle, reported as named metrics. See
// README.md in this directory and BENCHMARK.json at the repo root.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// config is one run. small is set by tests only: 200-table fixtures and a
// fiftieth of the operations under the same workload names, so no flag can
// change a workload's size.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	small    bool
	out      io.Writer
	traceDir string // where a traced run writes its spans and its scratch disk index
}

const (
	smallTables  = 200
	smallDivisor = 50
)

// ops scales an operation or repetition count: itself in a real run, a
// fiftieth of it, but at least floor, in a test run.
func (c config) ops(n, floor int) int {
	if c.small {
		return max(n/smallDivisor, floor)
	}
	return n
}

// tables scales a fixture size: itself in a real run, smallTables in a test.
func (c config) tables(n int) int {
	if c.small {
		return smallTables
	}
	return n
}

// sizing prints one sizing check and fails a real run that violates it; a
// test run is too small for the shares to hold.
func (c config) sizing(ok bool, format string, args ...any) error {
	c.note("sizing "+format, args...)
	if !ok && !c.small {
		return fmt.Errorf("sizing check failed: "+format, args...)
	}
	return nil
}

// phase prints the operation counts of one phase.
func (c config) phase(name string, n counts) {
	fmt.Fprintf(c.out, "phase %-12s attempted=%d succeeded=%d failed=%d\n", name, n.attempted, n.attempted-n.failed, n.failed)
}

// note prints one line of run facts (sizes, sample counts, sizing checks).
func (c config) note(format string, args ...any) {
	fmt.Fprintf(c.out, "note  "+format+"\n", args...)
}

// spread prints the values a quiet quartile was taken over.
func (c config) spread(name string, xs []float64) {
	fmt.Fprintf(c.out, "note  %s over %d:", name, len(xs))
	for _, x := range xs {
		fmt.Fprintf(c.out, " %.6g", x)
	}
	fmt.Fprintln(c.out)
}

// workload is one named input set. run measures the end-to-end metrics;
// trace measures the per-layer metrics on the same fixture.
type workload interface {
	run(cfg config) (values, counts, error)
	trace(cfg config) (values, counts, error)
}

var workloads = map[string]workload{
	"search-miss-20k": searchLoad{tables: 20000, perSecond: 400, setupBuilds: 1, graded: 200},
	"search-miss-1k":  searchLoad{tables: 1000, perSecond: 2000, setupBuilds: 12, graded: 200},
	"seeker-turns":    seekerLoad{distractors: 1000, setupBuilds: 8, passes: 3},
	"churn-1k":        churnLoad{tables: 1000, cyclesPerSecond: 12, sweeps: 10, survivorQueries: 50},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// execute runs one workload and prints its metrics and result line. Any
// failed operation or output check is an error, and no result line appears.
func execute(cfg config) error {
	w, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames())
	}
	if cfg.seconds < 1 || cfg.seconds > 60 {
		return fmt.Errorf("--seconds %d outside 1..60", cfg.seconds)
	}
	fmt.Fprintf(cfg.out, "run   workload=%s seed=%d seconds=%d trace=%t gomaxprocs=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0))
	measure, specs := w.run, endToEnd
	if cfg.trace {
		measure, specs = w.trace, perLayer
	}
	vals, n, err := measure(cfg)
	if err != nil {
		return err
	}
	if n.failed > 0 {
		return fmt.Errorf("%d of %d operations failed", n.failed, n.attempted)
	}
	return report(cfg.out, specs, vals, n)
}

func main() {
	// One P before any fixture exists: the benchmark's single closed-loop
	// caller and the program's goroutines share it, which is what repeats
	// on a small shared host.
	runtime.GOMAXPROCS(1)

	cfg := config{out: os.Stdout, traceDir: filepath.Join("benchmark", "out")}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&cfg.seconds, "seconds", 20, "run length the fixed operation lists are sized for")
	flag.IntVar(&trace, "trace", 0, "1: measure the per-layer metrics and write the spans")
	flag.Parse()
	cfg.trace = trace == 1

	if err := execute(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
