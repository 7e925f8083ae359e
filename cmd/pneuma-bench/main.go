// Command pneuma-bench regenerates every table and figure of the paper's
// evaluation (§4) over the synthetic KramaBench-style datasets:
//
//	pneuma-bench             # everything
//	pneuma-bench -table 1    # dataset characteristics
//	pneuma-bench -table 2    # token usage and costs
//	pneuma-bench -table 3    # accuracy comparison (plus the O3 in-text result)
//	pneuma-bench -figure 4   # convergence scatter, archaeology
//	pneuma-bench -figure 5   # convergence scatter, environment
//	pneuma-bench -latency    # the latency trade-off
//
// The full output is checked byte for byte by TestPaperGolden against
// testdata/paper.golden; after a change that is meant to move it, regenerate
// the file with
//
//	go run ./cmd/pneuma-bench > cmd/pneuma-bench/testdata/paper.golden
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"pneuma/internal/harness"
	"pneuma/internal/kramabench"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	tableN := flag.Int("table", 0, "regenerate one table (1, 2 or 3); 0 = all")
	figureN := flag.Int("figure", 0, "regenerate one figure (4 or 5); 0 = all")
	latency := flag.Bool("latency", false, "print only the latency trade-off")
	flag.Parse()

	if err := run(ctx, os.Stdout, *tableN, *figureN, *latency); err != nil {
		fmt.Fprintln(os.Stderr, "pneuma-bench:", err)
		os.Exit(1)
	}
}

// run writes the artifacts the flags select to w: table 1, 2 or 3, figure 4
// or 5, the latency trade-off alone, or, with every selector at its zero
// value, all of them. Progress goes to stderr.
func run(ctx context.Context, w io.Writer, tableN, figureN int, latency bool) error {
	wantAll := tableN == 0 && figureN == 0 && !latency

	arch := kramabench.Archaeology()
	env := kramabench.Environment()

	// Table 1 needs no simulation.
	if tableN == 1 || wantAll {
		fmt.Fprintln(w, harness.RenderTable1([]harness.Table1Row{
			harness.Table1For("Archeology", arch),
			harness.Table1For("Environment", env),
		}))
		if tableN == 1 {
			return nil
		}
	}

	needArch := wantAll || figureN == 4 || tableN == 2 || tableN == 3 || latency
	needEnv := wantAll || figureN == 5 || tableN == 2 || tableN == 3 || latency

	var archEval, envEval harness.DatasetEvaluation
	var err error
	if needArch {
		fmt.Fprintln(os.Stderr, "running archaeology evaluation (12 questions x 4 systems + RQ2)...")
		archEval, err = harness.RunFullEvaluation(ctx, "Archeology", arch, kramabench.ArchaeologyQuestions(arch), harness.EvalOptions{})
		if err != nil {
			return err
		}
	}
	if needEnv {
		fmt.Fprintln(os.Stderr, "running environment evaluation (20 questions x 4 systems + RQ2)...")
		envEval, err = harness.RunFullEvaluation(ctx, "Environment", env, kramabench.EnvironmentQuestions(env), harness.EvalOptions{})
		if err != nil {
			return err
		}
	}

	if figureN == 4 || wantAll {
		fmt.Fprintln(w, harness.RenderFigure(
			"Figure 4: Median Turns to Convergence vs. Convergence Percentage (Archeology)",
			archEval.Convergence))
	}
	if figureN == 5 || wantAll {
		fmt.Fprintln(w, harness.RenderFigure(
			"Figure 5: Median Turns to Convergence vs. Convergence Percentage (Environment)",
			envEval.Convergence))
	}
	if tableN == 2 || wantAll {
		fmt.Fprintln(w, harness.RenderTable2([]harness.TokenUsageRow{archEval.Tokens, envEval.Tokens}))
	}
	if tableN == 3 || wantAll {
		fmt.Fprintln(w, harness.RenderTable3(archEval.RQ2, envEval.RQ2))
		fmt.Fprintln(w, harness.RenderO3(archEval.O3, envEval.O3))
	}
	if latency || wantAll {
		fmt.Fprintln(w, harness.RenderLatency(
			[]harness.TokenUsageRow{archEval.Tokens, envEval.Tokens},
			[]string{"FTS", "Pneuma-Retriever"}))
	}
	return nil
}
