package baselines

import (
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

// Answerer is a system that answers one benchmark question end-to-end —
// the RQ2 accuracy interface.
type Answerer interface {
	Name() string
	AnswerQuestion(ctx context.Context, q kramabench.Question) (string, error)
}

// DSGuru is KramaBench's reference framework (§4.2): it "instructs an LLM
// to decompose a question into a sequence of subtasks, reason through each
// step, and synthesize Python code" — one shot, over the full dataset
// schemas, with no retrieval grounding, no user interaction and no repair
// loop. The execution substrate (Materializer + SQL executor) is shared
// with Pneuma-Seeker so the comparison isolates the planning differences.
type DSGuru struct {
	model      llm.Model
	meter      *llm.Meter
	corpusDocs []docs.Document
	tableDTOs  []llm.TableInfo
}

// NewDSGuru builds the baseline over a corpus. The paper runs the O3-based
// DS-Guru, so the default model profile is "o3".
func NewDSGuru(corpus map[string]*table.Table, model llm.Model) *DSGuru {
	if model == nil {
		model = llm.NewSimModel(llm.WithProfile("o3"))
	}
	meter := llm.NewMeter()
	g := &DSGuru{
		model: &llm.MeteredModel{Inner: model, Meter: meter, Component: "ds-guru"},
		meter: meter,
	}
	for _, name := range sortedNames(corpus) {
		t := corpus[name]
		g.corpusDocs = append(g.corpusDocs, docFromTable(t))
		g.tableDTOs = append(g.tableDTOs, llm.NewTableInfo(t, 16))
	}
	return g
}

// Meter exposes token usage.
func (g *DSGuru) Meter() *llm.Meter { return g.meter }

// Name implements Answerer.
func (g *DSGuru) Name() string { return "DS-Guru (O3)" }

// AnswerQuestion implements Answerer: decompose → synthesize plan →
// execute once. Any execution error is final (no repair loop).
func (g *DSGuru) AnswerQuestion(ctx context.Context, q kramabench.Question) (string, error) {
	resp, err := g.model.Complete(ctx, llm.Request{
		Task: llm.TaskDecompose,
		System: "You are DS-Guru. Decompose the question into subtasks, reason " +
			"through each step, and synthesize the code implementing the plan.",
		Payload: llm.MarshalPayload(llm.DecomposeInput{
			Question: q.Need.QuestionText,
			Tables:   g.tableDTOs,
		}),
	})
	if err != nil {
		return "", err
	}
	var plan llm.DecomposeOutput
	if err := llm.DecodeResponse(resp, &plan); err != nil {
		return "", err
	}
	if plan.Failed {
		return "", fmt.Errorf("ds-guru: %s", plan.Reason)
	}

	// One-shot execution: zero repair attempts.
	mat := core.NewMaterializer(g.model, 0)
	res, err := mat.Materialize(ctx, plan.Spec, g.corpusDocs, plan.Queries)
	if err != nil {
		return "", err
	}
	eng := sqlengine.NewEngine()
	eng.RegisterAs(plan.Spec.Name, res.Table)
	var answer string
	for _, qry := range plan.Queries {
		out, err := eng.Query(qry)
		if err != nil {
			return "", err
		}
		if out.NumRows() > 0 && out.NumCols() > 0 {
			answer = out.At(0, 0).String()
		}
	}
	if strings.TrimSpace(answer) == "" {
		return "", fmt.Errorf("ds-guru: plan produced no answer")
	}
	return answer, nil
}
