package harness

import (
	"context"
	"fmt"
	"strings"

	"pneuma/internal/baselines"
	"pneuma/internal/kramabench"
	"pneuma/internal/llm"
	"pneuma/internal/table"
)

// Table1Row is one row of the paper's Table 1.
type Table1Row struct {
	Dataset   string
	NumTables int
	AvgRows   int
	AvgCols   int
}

// Table1For computes dataset characteristics.
func Table1For(name string, corpus map[string]*table.Table) Table1Row {
	rows, cols := 0, 0
	for _, t := range corpus {
		rows += t.NumRows()
		cols += t.NumCols()
	}
	n := len(corpus)
	if n == 0 {
		return Table1Row{Dataset: name}
	}
	return Table1Row{Dataset: name, NumTables: n, AvgRows: rows / n, AvgCols: cols / n}
}

// TokenUsageRow is one row of the paper's Table 2: average tokens per
// interaction and the projected cost under each model in the catalog.
type TokenUsageRow struct {
	Dataset   string
	AvgIn     int
	AvgOut    int
	CostsIn   map[string]float64
	CostsOut  map[string]float64
	AvgSimSec float64 // average simulated seconds per user prompt
}

// BuildTokenUsage converts a per-interaction average usage into Table 2
// costs across the catalog.
func BuildTokenUsage(dataset string, avgIn, avgOut int, avgSimSec float64) TokenUsageRow {
	row := TokenUsageRow{
		Dataset: dataset, AvgIn: avgIn, AvgOut: avgOut, AvgSimSec: avgSimSec,
		CostsIn: map[string]float64{}, CostsOut: map[string]float64{},
	}
	for _, id := range llm.Table2Models {
		p := llm.Catalog[id]
		in, out := p.Cost(llm.Usage{InTokens: avgIn, OutTokens: avgOut})
		row.CostsIn[id] = in
		row.CostsOut[id] = out
	}
	return row
}

// RenderTable1 prints both datasets' characteristics like the paper's
// Table 1.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1: Characteristics of the Datasets\n")
	fmt.Fprintf(&b, "%-14s %9s %11s %11s\n", "Dataset", "# Tables", "Avg. #Rows", "Avg. #Cols")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %9d %11d %11d\n", r.Dataset, r.NumTables, r.AvgRows, r.AvgCols)
	}
	return b.String()
}

// RenderFigure prints one convergence scatter (Figure 4 or 5) as a table of
// points plus an ASCII quadrant sketch.
func RenderFigure(title string, sums []ConvergenceSummary) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%-18s %14s %18s\n", "System", "Convergence %", "Median Turns")
	for _, s := range sums {
		fmt.Fprintf(&b, "%-18s %14.1f %18.1f\n", s.System, s.Pct, s.MedianTurns)
	}
	b.WriteString(renderScatter(sums))
	return b.String()
}

// renderScatter draws convergence% (y) vs median turns (x) in ASCII.
func renderScatter(sums []ConvergenceSummary) string {
	const w, h = 46, 12
	grid := make([][]byte, h)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", w))
	}
	marks := map[string]byte{}
	legend := []string{}
	for i, s := range sums {
		mark := byte('1' + i)
		marks[s.System] = mark
		legend = append(legend, fmt.Sprintf("%c=%s", mark, s.System))
		x := int(s.MedianTurns / 15 * float64(w-1))
		if x >= w {
			x = w - 1
		}
		y := h - 1 - int(s.Pct/100*float64(h-1))
		if y < 0 {
			y = 0
		}
		if y >= h {
			y = h - 1
		}
		grid[y][x] = mark
	}
	var b strings.Builder
	b.WriteString("  100% ┌" + strings.Repeat("─", w) + "┐  (high convergence, low turns = top-left)\n")
	for i, row := range grid {
		label := "       "
		if i == h-1 {
			label = "    0% "
		}
		b.WriteString(label + "│" + string(row) + "│\n")
	}
	b.WriteString("       └" + strings.Repeat("─", w) + "┘\n")
	b.WriteString("        0        median turns to convergence       15\n")
	b.WriteString("        " + strings.Join(legend, "  ") + "\n")
	return b.String()
}

// RenderTable3 prints the accuracy comparison like the paper's Table 3.
func RenderTable3(arch, env []AccuracySummary) string {
	var b strings.Builder
	b.WriteString("Table 3: Comparison of Accuracy across Datasets\n")
	fmt.Fprintf(&b, "%-20s %14s %14s\n", "System", "Archeology", "Environment")
	for i := range arch {
		fmt.Fprintf(&b, "%-20s %13.2f%% %13.2f%%\n", arch[i].System, arch[i].Pct, env[i].Pct)
	}
	return b.String()
}

// RenderTable2 prints token usage and costs like the paper's Table 2.
func RenderTable2(rows []TokenUsageRow) string {
	var b strings.Builder
	b.WriteString("Table 2: Estimated Average Token Usage and Costs Across Different LLMs\n")
	fmt.Fprintf(&b, "%-13s %10s %9s", "Dataset", "Avg In", "Avg Out")
	for _, id := range llm.Table2Models {
		fmt.Fprintf(&b, " %16s", llm.Catalog[id].Name+" In/Out")
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-13s %10d %9d", r.Dataset, r.AvgIn, r.AvgOut)
		for _, id := range llm.Table2Models {
			fmt.Fprintf(&b, "   $%5.2f/$%5.2f ", r.CostsIn[id], r.CostsOut[id])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderO3 prints the in-text O3 full-context result.
func RenderO3(arch, env AccuracySummary) string {
	var b strings.Builder
	b.WriteString("In-text result: O3 with whole relevant tables in context\n")
	fmt.Fprintf(&b, "  archaeology: context exceeded on %d/%d questions, %d correct\n",
		arch.ContextExceededCount, arch.Total, arch.Correct)
	fmt.Fprintf(&b, "  environment: context exceeded on %d/%d questions, %d correct\n",
		env.ContextExceededCount, env.Total, env.Correct)
	return b.String()
}

// RenderLatency prints the latency trade-off.
func RenderLatency(rows []TokenUsageRow, static []string) string {
	var b strings.Builder
	b.WriteString("Latency trade-off (simulated):\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  Pneuma-Seeker [%s]: %.2f s per user prompt\n", r.Dataset, r.AvgSimSec)
	}
	for _, s := range static {
		fmt.Fprintf(&b, "  %s: answers almost instantaneously (no model calls)\n", s)
	}
	return b.String()
}

// EvalOptions configures RunFullEvaluation.
type EvalOptions struct {
	MaxTurns int
}

// DatasetEvaluation is the complete RQ1+RQ2 result set for one dataset.
type DatasetEvaluation struct {
	Dataset     string
	Table1      Table1Row
	Convergence []ConvergenceSummary
	RQ2         []AccuracySummary // LlamaIndex, DS-Guru, Seeker (Table 3 order)
	O3          AccuracySummary
	Tokens      TokenUsageRow
}

// RunFullEvaluation runs everything the paper's §4 reports for one
// dataset. The context bounds the whole sweep; cancellation aborts
// between conversations.
func RunFullEvaluation(ctx context.Context, dataset string, corpus map[string]*table.Table, questions []kramabench.Question, opts EvalOptions) (DatasetEvaluation, error) {
	if opts.MaxTurns <= 0 {
		opts.MaxTurns = DefaultMaxTurns
	}
	out := DatasetEvaluation{Dataset: dataset, Table1: Table1For(dataset, corpus)}
	sim := llm.NewSimModel(llm.WithProfile("gpt-4o"))

	fts := baselines.NewFTS(corpus)
	retOnly, err := baselines.NewRetrieverOnly(corpus)
	if err != nil {
		return out, err
	}
	rag, err := baselines.NewRAG(corpus, nil)
	if err != nil {
		return out, err
	}
	seeker, err := NewSeekerSystem(corpus, nil)
	if err != nil {
		return out, err
	}

	// RQ1 (Figure 4/5): the four systems in the paper's legend order.
	for _, sys := range []baselines.System{fts, retOnly, rag, seeker} {
		sum, err := RunConvergence(ctx, sys, questions, sim, opts.MaxTurns)
		if err != nil {
			return out, err
		}
		out.Convergence = append(out.Convergence, sum)
	}

	// Table 2: average seeker-side token usage per interaction, measured
	// during the RQ1 sweep.
	meter := seeker.Seeker().Meter().Snapshot()
	n := len(questions)
	avgIn := meter.Total.InTokens / n
	avgOut := meter.Total.OutTokens / n
	prompts := 0
	for _, s := range out.Convergence {
		if s.System == "Pneuma-Seeker" {
			for _, r := range s.Results {
				prompts += len(r.Transcript)
			}
		}
	}
	avgSec := 0.0
	if prompts > 0 {
		avgSec = meter.TotalLatency.Seconds() / float64(prompts)
	}
	out.Tokens = BuildTokenUsage(dataset, avgIn, avgOut, avgSec)

	// RQ2 (Table 3): fresh systems so accuracy runs do not share state.
	rag2, err := baselines.NewRAG(corpus, nil)
	if err != nil {
		return out, err
	}
	seeker2, err := NewSeekerSystem(corpus, nil)
	if err != nil {
		return out, err
	}
	out.RQ2 = []AccuracySummary{
		RunAccuracy(ctx, NewRAGAnswerer(rag2, sim), questions),
		RunAccuracy(ctx, baselines.NewDSGuru(corpus, nil), questions),
		RunAccuracy(ctx, NewSeekerAnswerer(seeker2, sim), questions),
	}
	out.O3 = RunAccuracy(ctx, baselines.NewFullContext(corpus, nil), questions)
	return out, nil
}
