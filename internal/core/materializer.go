package core

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"pneuma/internal/docs"
	"pneuma/internal/llm"
	"pneuma/internal/sqlengine"
	"pneuma/internal/table"
	"pneuma/internal/transform"
)

// Materializer populates T (§3.4). Its "sole purpose is to populate T with
// data, possibly involving integration of multi-source data from IR
// System." It is a context-specialized agent: its prompts contain only what
// integration needs (the spec, the source schemas, the queries in Q), and
// its toolkit is the SQL executor plus the transform toolkit. Tool errors
// feed a bounded repair loop through the model's materialize-plan skill.
type Materializer struct {
	model      llm.Model
	maxRepairs int
	// sampleVals bounds per-column samples in the specialized context.
	sampleVals int
}

// NewMaterializer builds a Materializer. maxRepairs ≤ 0 disables the repair
// loop (the static-pipeline ablation).
func NewMaterializer(model llm.Model, maxRepairs int) *Materializer {
	return &Materializer{model: model, maxRepairs: maxRepairs, sampleVals: 8}
}

// MaterializeResult carries the populated table plus the trace of plans and
// errors (surfaced in the CLI and tested by the repair-loop tests).
type MaterializeResult struct {
	Table   *table.Table
	Plans   []llm.MaterializePlan
	Errors  []string
	Repairs int
}

// Materialize builds the target table for spec out of the retrieved
// documents, running the plan → execute → repair loop. The context bounds
// every planning (model) call; cancellation ends the repair loop early
// with ctx.Err(). Every call executes its plan; only a Session remembers
// what it has already built.
func (m *Materializer) Materialize(ctx context.Context, spec llm.TableSpec, retrieved []docs.Document, queries []string) (MaterializeResult, error) {
	return m.materialize(ctx, spec, retrieved, queries, nil)
}

// materialize is Materialize with the calling session's memo (nil for none).
// The model is asked for every plan either way, so a hit saves the
// execution and changes no prompt, token count or decision.
func (m *Materializer) materialize(ctx context.Context, spec llm.TableSpec, retrieved []docs.Document, queries []string, memo *planMemo) (MaterializeResult, error) {
	var res MaterializeResult

	// Specialized context: only table documents, only integration data.
	var docDTOs []llm.DocInfo
	byName := make(map[string]*table.Table)
	for _, d := range retrieved {
		if d.Table == nil {
			continue
		}
		docDTOs = append(docDTOs, llm.NewDocInfo(d, m.sampleVals))
		byName[strings.ToLower(d.Table.Schema.Name)] = d.Table
	}

	in := llm.MaterializeInput{Spec: spec, Docs: docDTOs, Queries: queries}
	plan, err := m.plan(ctx, in)
	if err != nil {
		return res, err
	}
	res.Plans = append(res.Plans, plan)

	for attempt := 0; ; attempt++ {
		t, execErr := memo.execute(m, plan, spec, byName)
		if execErr == nil {
			res.Table = t
			return res, nil
		}
		res.Errors = append(res.Errors, execErr.Error())
		if attempt >= m.maxRepairs {
			return res, fmt.Errorf("materializer: giving up after %d attempt(s): %w", attempt+1, execErr)
		}
		// Repair: same skill, now with the error and the previous plan.
		in.LastError = execErr.Error()
		in.PrevPlan = &plan
		repaired, planErr := m.plan(ctx, in)
		if planErr != nil {
			return res, planErr
		}
		plan = repaired
		res.Plans = append(res.Plans, plan)
		res.Repairs++
	}
}

// PlanOnly produces the integration plan for a spec without executing it;
// the full-context baseline runs plans with its own lenient policy.
func (m *Materializer) PlanOnly(ctx context.Context, spec llm.TableSpec, retrieved []docs.Document, queries []string) (llm.MaterializePlan, error) {
	var docDTOs []llm.DocInfo
	for _, d := range retrieved {
		if d.Table != nil {
			docDTOs = append(docDTOs, llm.NewDocInfo(d, m.sampleVals))
		}
	}
	return m.plan(ctx, llm.MaterializeInput{Spec: spec, Docs: docDTOs, Queries: queries})
}

// ExecutePlan runs an integration plan against the retrieved documents.
func (m *Materializer) ExecutePlan(plan llm.MaterializePlan, spec llm.TableSpec, retrieved []docs.Document) (*table.Table, error) {
	byName := make(map[string]*table.Table)
	for _, d := range retrieved {
		if d.Table != nil {
			byName[strings.ToLower(d.Table.Schema.Name)] = d.Table
		}
	}
	return m.execute(plan, spec, byName)
}

func (m *Materializer) plan(ctx context.Context, in llm.MaterializeInput) (llm.MaterializePlan, error) {
	resp, err := m.model.Complete(ctx, llm.Request{
		Task: llm.TaskMaterializePlan,
		System: "You are the Materializer of Pneuma-Seeker. Your sole purpose is to " +
			"populate the target table T by integrating and transforming the retrieved " +
			"source tables, aligning value formats with what the queries in Q expect.",
		Payload: llm.MarshalPayload(in),
	})
	if err != nil {
		return llm.MaterializePlan{}, fmt.Errorf("materializer: planning failed: %w", err)
	}
	var plan llm.MaterializePlan
	if err := llm.DecodeResponse(resp, &plan); err != nil {
		return llm.MaterializePlan{}, err
	}
	return plan, nil
}

// planMemoSize bounds a session's memo. The worst kramabench conversation
// holds 4 distinct plans.
const planMemoSize = 8

// planMemo is a session's memory of the tables it has materialized: at most
// planMemoSize results of execute, most recently used first. What execute
// builds is a function of the spec's name, the plan's steps and the contents
// of the source tables the steps name; tables are immutable (package table's
// row rule), so the contents are stood for by the tables' identity and a
// replaced source is a different key. Failures are not remembered: a plan
// that failed runs again and fails with the same text. A nil *planMemo
// remembers nothing.
type planMemo struct {
	entries []memoEntry
}

type memoEntry struct {
	name    string
	steps   []llm.MatStep
	sources []*table.Table
	result  *table.Table
}

// execute is m.execute, skipped when the memo holds what it would build.
func (pm *planMemo) execute(m *Materializer, plan llm.MaterializePlan, spec llm.TableSpec, byName map[string]*table.Table) (*table.Table, error) {
	if pm == nil {
		return m.execute(plan, spec, byName)
	}
	// The source each step names, nil for a step that names none (or one
	// that was not retrieved, which execute will refuse).
	sources := make([]*table.Table, len(plan.Steps))
	for i, step := range plan.Steps {
		if step.Table != "" {
			sources[i] = byName[strings.ToLower(step.Table)]
		}
	}
	for i, e := range pm.entries {
		if e.name == spec.Name && slices.Equal(e.steps, plan.Steps) && slices.Equal(e.sources, sources) {
			copy(pm.entries[1:i+1], pm.entries[:i])
			pm.entries[0] = e
			return e.result, nil
		}
	}
	t, err := m.execute(plan, spec, byName)
	if err != nil {
		return nil, err
	}
	if len(pm.entries) < planMemoSize {
		pm.entries = append(pm.entries, memoEntry{})
	}
	copy(pm.entries[1:], pm.entries)
	pm.entries[0] = memoEntry{name: spec.Name, steps: plan.Steps, sources: sources, result: t}
	return t, nil
}

// execute runs an integration plan over the source tables. It copies no
// table: the base step starts from the source itself, every later step hands
// back a new table that shares the rows it did not change (package table's
// row rule), and the result is named on a header of its own, so a source's
// schema and cells are never written.
func (m *Materializer) execute(plan llm.MaterializePlan, spec llm.TableSpec, byName map[string]*table.Table) (*table.Table, error) {
	var cur *table.Table
	for _, step := range plan.Steps {
		switch step.Op {
		case "base":
			src, ok := byName[strings.ToLower(step.Table)]
			if !ok {
				return nil, &transform.Error{Op: "BASE", Msg: fmt.Sprintf(
					"source table %q was not retrieved; available: %s", step.Table, names(byName))}
			}
			cur = src

		case "join":
			if cur == nil {
				return nil, &transform.Error{Op: "JOIN", Msg: "no base table selected before join"}
			}
			right, ok := byName[strings.ToLower(step.Table)]
			if !ok {
				return nil, &transform.Error{Op: "JOIN", Msg: fmt.Sprintf(
					"join table %q was not retrieved; available: %s", step.Table, names(byName))}
			}
			lk, rk, err := splitJoinKeys(step.Arg)
			if err != nil {
				return nil, err
			}
			joined, err := equiJoin(cur, right, lk, rk)
			if err != nil {
				return nil, err
			}
			if joined.NumRows() == 0 && cur.NumRows() > 0 && right.NumRows() > 0 {
				return nil, &transform.Error{Op: "JOIN", Msg: fmt.Sprintf(
					"join produced no rows on %s=%s — key values may not line up exactly", lk, rk)}
			}
			cur = joined

		case "fuzzy_join":
			if cur == nil {
				return nil, &transform.Error{Op: "FUZZY_JOIN", Msg: "no base table selected before join"}
			}
			right, ok := byName[strings.ToLower(step.Table)]
			if !ok {
				return nil, &transform.Error{Op: "FUZZY_JOIN", Msg: fmt.Sprintf(
					"join table %q was not retrieved; available: %s", step.Table, names(byName))}
			}
			lk, rk, err := splitJoinKeys(step.Arg)
			if err != nil {
				return nil, err
			}
			out, err := transform.FuzzyJoin{Right: right, LeftKey: lk, RightKey: rk}.Apply(cur)
			if err != nil {
				return nil, err
			}
			cur = out

		default:
			var apply func(*table.Table) (*table.Table, error)
			switch step.Op {
			case "parse_dates":
				apply = transform.ParseDates{Column: step.Column, Lenient: step.Lenient}.Apply
			case "to_number":
				apply = transform.ToNumber{Column: step.Column, Lenient: step.Lenient}.Apply
			case "interpolate":
				apply = transform.Interpolate{XColumn: step.Arg, YColumn: step.Column}.Apply
			case "derive":
				apply = transform.Derive{Name: step.Column, Expr: step.Arg}.Apply
			case "project":
				apply = transform.Keep{Columns: splitCSV(step.Arg)}.Apply
			default:
				return nil, &transform.Error{Op: step.Op, Msg: "unknown integration op"}
			}
			if cur == nil {
				return nil, &transform.Error{Op: strings.ToUpper(step.Op), Msg: "no base table selected before " + step.Op}
			}
			out, err := apply(cur)
			if err != nil {
				return nil, err
			}
			cur = out
		}
	}
	if cur == nil {
		return nil, &transform.Error{Op: "PLAN", Msg: "plan produced no table"}
	}
	out := cur.Head(cur.NumRows())
	out.Schema.Name = spec.Name
	return out, nil
}

// equiJoin joins via the SQL engine under stable aliases.
func equiJoin(left, right *table.Table, leftKey, rightKey string) (*table.Table, error) {
	eng := sqlengine.NewEngine()
	eng.RegisterAs("l", left)
	eng.RegisterAs("r", right)
	// Project right-side columns that do not collide with left names.
	var rcols []string
	for _, c := range right.Schema.Columns {
		if left.Schema.ColumnIndex(c.Name) < 0 {
			rcols = append(rcols, "r."+quoteIdent(c.Name))
		}
	}
	sel := "l.*"
	if len(rcols) > 0 {
		sel += ", " + strings.Join(rcols, ", ")
	}
	q := fmt.Sprintf("SELECT %s FROM l JOIN r ON l.%s = r.%s", sel, quoteIdent(leftKey), quoteIdent(rightKey))
	out, err := eng.Query(q)
	if err != nil {
		return nil, &transform.Error{Op: "JOIN", Msg: err.Error()}
	}
	// Preserve column descriptions from the sources.
	for i := range out.Schema.Columns {
		name := out.Schema.Columns[i].Name
		if c, ok := left.Schema.Column(name); ok {
			out.Schema.Columns[i].Description = c.Description
			out.Schema.Columns[i].Unit = c.Unit
		} else if c, ok := right.Schema.Column(name); ok {
			out.Schema.Columns[i].Description = c.Description
			out.Schema.Columns[i].Unit = c.Unit
		}
	}
	return out, nil
}

// quoteIdent quotes a column name for SQL. Names come from CSV headers, so
// any of them may be a reserved word or hold punctuation: every name is
// quoted, with an embedded quote doubled.
func quoteIdent(s string) string {
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

func splitJoinKeys(arg string) (string, string, error) {
	parts := strings.SplitN(arg, "=", 2)
	if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
		return "", "", &transform.Error{Op: "JOIN", Msg: fmt.Sprintf(
			"join keys %q malformed; want left=right", arg)}
	}
	return strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1]), nil
}

func splitCSV(s string) []string {
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

func names(byName map[string]*table.Table) string {
	out := make([]string, 0, len(byName))
	for n := range byName {
		out = append(out, n)
	}
	if len(out) == 0 {
		return "(none)"
	}
	return strings.Join(out, ", ")
}
