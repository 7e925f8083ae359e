package baselines

import (
	"bytes"
	"context"
	"fmt"
	"strings"

	"pneuma/internal/core"
	"pneuma/internal/docs"
	"pneuma/internal/kramabench"
	"pneuma/internal/llm"
	"pneuma/internal/sqlengine"
	"pneuma/internal/table"
)

// FullContext is the O3 whole-table baseline (§4.2): "for each benchmark
// question, we provide it with the whole relevant tables, so it has every
// necessary information". Two failure modes are modelled, both from the
// paper's findings:
//
//  1. Context overflow: the serialized relevant tables exceed the model's
//     200k window on most questions (17/20 environment, 6/12 archaeology in
//     the paper) — ErrContextLengthExceeded is returned.
//  2. Attention-limited arithmetic: even when everything fits, a language
//     model cannot reliably aggregate thousands of rows. The simulation
//     computes exactly when the filtered row count is within the attention
//     budget and otherwise aggregates only the earliest rows — precise on
//     small slices, silently wrong on large ones. That reproduces "O3
//     answers none of the six archaeology questions correctly, but answers
//     two environment questions correctly".
type FullContext struct {
	corpus map[string]*table.Table
	model  llm.Model
	meter  *llm.Meter
	// attentionRows is the number of rows the model can aggregate exactly.
	attentionRows int
}

// NewFullContext builds the baseline over a corpus.
func NewFullContext(corpus map[string]*table.Table, model llm.Model) *FullContext {
	if model == nil {
		model = llm.NewSimModel(llm.WithProfile("o3"))
	}
	meter := llm.NewMeter()
	return &FullContext{
		corpus:        corpus,
		model:         &llm.MeteredModel{Inner: model, Meter: meter, Component: "o3-full-context"},
		meter:         meter,
		attentionRows: 60,
	}
}

// Meter exposes token usage.
func (f *FullContext) Meter() *llm.Meter { return f.meter }

// Name implements Answerer.
func (f *FullContext) Name() string { return "O3 (full context)" }

// ContextTokensFor reports the token cost of serializing the question's
// relevant tables — the quantity checked against the 200k window.
func (f *FullContext) ContextTokensFor(q kramabench.Question) int {
	total := 0
	for _, name := range q.RelevantTables {
		t, ok := f.corpus[name]
		if !ok {
			continue
		}
		var buf bytes.Buffer
		_ = t.WriteCSV(&buf)
		total += llm.EstimateTokens(buf.String())
	}
	return total
}

// AnswerQuestion implements Answerer.
func (f *FullContext) AnswerQuestion(ctx context.Context, q kramabench.Question) (string, error) {
	inTokens := f.ContextTokensFor(q) + llm.EstimateTokens(q.Need.QuestionText)
	if inTokens > f.model.ContextLimit() {
		return "", fmt.Errorf("%w: relevant tables serialize to %d tokens, %s allows %d",
			llm.ErrContextLengthExceeded, inTokens, f.model.Name(), f.model.ContextLimit())
	}
	// Bill the full prompt (the call "succeeded" even if arithmetic is
	// unreliable).
	f.meter.Record("o3-full-context", llm.Response{Usage: llm.Usage{InTokens: inTokens, OutTokens: 64}})

	// Plan exactly like a strong model reading the schemas would (the
	// decompose skill with descriptions intact would be the conductor's
	// planner; O3 is at least that capable one-shot).
	var dtos []llm.TableInfo
	var corpusDocs []docs.Document
	for _, name := range q.RelevantTables {
		t, ok := f.corpus[name]
		if !ok {
			continue
		}
		dtos = append(dtos, llm.NewTableInfo(t, 16))
		corpusDocs = append(corpusDocs, docFromTable(t))
	}
	vocab := llm.Vocab{Tables: dtos}
	intent := llm.ParseUtterance(q.Need.QuestionText, vocab)
	if intent.MeasurePhrase == "" {
		return "", fmt.Errorf("o3: could not identify the measure")
	}
	tbl, col, score, _ := llm.ResolveMeasure(vocab, intent.MeasurePhrase, intent.Topic)
	if score < 0.30 {
		return "", fmt.Errorf("o3: no column matches %q", intent.MeasurePhrase)
	}
	spec, queries, unresolved := llm.BuildPlan(intent, vocab, tbl, col)
	if unresolved != "" {
		return "", fmt.Errorf("o3: %s", unresolved)
	}

	// A reading model skips malformed values rather than crashing: all
	// transforms run leniently, without a repair loop.
	mat := core.NewMaterializer(f.model, 0)
	plan, err := mat.PlanOnly(ctx, spec, corpusDocs, queries)
	if err != nil {
		return "", err
	}
	for i := range plan.Steps {
		plan.Steps[i].Lenient = true
	}
	built, err := mat.ExecutePlan(plan, spec, corpusDocs)
	if err != nil {
		return "", err
	}

	// Attention-limited execution: count the rows the query actually
	// aggregates; beyond the budget, only the earliest rows are read.
	matched, err := countMatching(built, spec.Name, queries)
	if err != nil {
		return "", err
	}
	working := built
	if matched > f.attentionRows {
		working = truncateToMatching(built, spec.Name, queries, f.attentionRows)
	}
	eng := sqlengine.NewEngine()
	eng.RegisterAs(spec.Name, working)
	var answer string
	for _, qry := range queries {
		out, err := eng.Query(qry)
		if err != nil {
			return "", err
		}
		if out.NumRows() > 0 && out.NumCols() > 0 {
			answer = out.Rows[0][0].String()
		}
	}
	if strings.TrimSpace(answer) == "" {
		return "", fmt.Errorf("o3: no answer produced")
	}
	return answer, nil
}

// countMatching counts rows the first query's WHERE clause selects.
func countMatching(t *table.Table, name string, queries []string) (int, error) {
	if len(queries) == 0 {
		return t.NumRows(), nil
	}
	sel, err := sqlengine.Parse(queries[0])
	if err != nil {
		return 0, err
	}
	where := extractWhere(sel)
	counting := fmt.Sprintf("SELECT COUNT(*) AS n FROM %s%s", name, where)
	eng := sqlengine.NewEngine()
	eng.RegisterAs(name, t)
	out, err := eng.Query(counting)
	if err != nil {
		return 0, err
	}
	return int(out.Rows[0][0].IntVal()), nil
}

// truncateToMatching keeps rows until budget matching rows have been seen —
// the "model reads from the top" truncation.
func truncateToMatching(t *table.Table, name string, queries []string, budget int) *table.Table {
	sel, err := sqlengine.Parse(queries[0])
	if err != nil {
		return t.Head(budget)
	}
	where := extractWhere(sel)
	if where == "" {
		return t.Head(budget)
	}
	// Evaluate the WHERE predicate row by row via a 1-row engine would be
	// slow; instead use LIMIT on the filtered subquery to find the cutoff
	// cheaply.
	eng := sqlengine.NewEngine()
	eng.RegisterAs(name, t)
	q := fmt.Sprintf("SELECT * FROM %s%s LIMIT %d", name, where, budget)
	out, err := eng.Query(q)
	if err != nil {
		return t.Head(budget)
	}
	out.Schema = t.Schema
	return out
}

// extractWhere re-renders a parsed query's WHERE clause (with leading
// space), or "".
func extractWhere(sel *sqlengine.Select) string {
	if sel.Where == nil {
		// The aggregate may sit over an ordered subquery (first/last
		// plans); use the subquery's WHERE.
		if sel.From != nil && sel.From.Sub != nil && sel.From.Sub.Where != nil {
			return " WHERE " + sel.From.Sub.Where.String()
		}
		return ""
	}
	return " WHERE " + sel.Where.String()
}
