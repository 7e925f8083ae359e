package main

import (
	"context"
	"fmt"
	"sort"

	"pneuma"
	"pneuma/internal/baselines"
	"pneuma/internal/harness"
	"pneuma/internal/ir"
	"pneuma/internal/kramabench"
	"pneuma/internal/llm"
	"pneuma/internal/table"
)

// seekerLoad is seeker-turns: the paper's loop. One request is one
// ServiceSession.Send inside a simulated-analyst conversation over the
// kramabench questions, one session at a time, beside generated distractor
// tables. One Service serves every pass, so table profiles and the
// knowledge store are warm after the warm-up pass.
type seekerLoad struct {
	distractors int
	setupBuilds int
	passes      int // measured passes; one more warms up
}

const (
	seekerQuestionsAt20s = 32 // every kramabench question at --seconds 20
	seekerMaxTurns       = harness.DefaultMaxTurns
	seekerUserProfile    = "gpt-4o"
)

type seekerPlan struct {
	tables      []*table.Table // the distractors first, then the kramabench tables
	distractors int
	questions   []kramabench.Question
}

func (w seekerLoad) plan(cfg config, in *inputs) (seekerPlan, error) {
	distractors := cfg.tables(w.distractors)
	questions := cfg.ops(min(seekerQuestionsAt20s, max(2, seekerQuestionsAt20s*cfg.seconds/20)), 1)
	bench := map[string]*table.Table{}
	for _, dataset := range []map[string]*table.Table{kramabench.Archaeology(), kramabench.Environment()} {
		for name, t := range dataset {
			if _, dup := bench[name]; dup {
				return seekerPlan{}, fmt.Errorf("kramabench datasets both define table %q", name)
			}
			bench[name] = t
		}
	}
	// Benchmark order, whatever the seed: captured knowledge carries from one
	// conversation to the next, so another order is another workload with
	// another share of right answers.
	qs := append(kramabench.ArchaeologyQuestions(bench), kramabench.EnvironmentQuestions(bench)...)

	benchNames := make([]string, 0, len(bench))
	for name := range bench {
		benchNames = append(benchNames, name)
	}
	sort.Strings(benchNames)
	p := seekerPlan{tables: in.tables(0, distractors), distractors: distractors, questions: qs[:questions]}
	for _, name := range benchNames {
		p.tables = append(p.tables, bench[name])
	}
	return p, nil
}

// turn is what one Send did, read from its reply.
type turn struct {
	us      float64
	actions int
	byKind  map[string]int
	queries []string // retrieval queries issued
}

// pass is one replay of every conversation.
type pass struct {
	turns     []turn
	answers   []string
	converged int
	sessions  []*pneuma.ServiceSession
}

func (p *pass) latencies() []float64 {
	out := make([]float64, len(p.turns))
	for i, t := range p.turns {
		out[i] = t.us
	}
	return out
}

// analyst adapts Service sessions to the conversation harness and times
// every Send. rec and model are nil outside a traced pass.
type analyst struct {
	svc   *pneuma.Service
	rec   *recorder
	model *timingModel
	c     *counts
	pass  *pass
}

func (a *analyst) Name() string { return "Pneuma-Seeker" }
func (a *analyst) Kind() string { return "seeker" }

func (a *analyst) StartConversation() baselines.Conversation {
	sess := a.svc.NewSession("analyst")
	if a.rec != nil {
		// Only the traced run looks into finished sessions; the untraced
		// run must not keep their materialized tables on the heap.
		a.pass.sessions = append(a.pass.sessions, sess)
	}
	return &conversation{a: a, sess: sess}
}

type conversation struct {
	a    *analyst
	sess *pneuma.ServiceSession
}

// Respond is one request of the workload. The mapping of a reply onto the
// simulated user's view is the one harness.SeekerSystem uses.
func (c *conversation) Respond(ctx context.Context, utterance string) (baselines.Output, error) {
	var reply pneuma.Reply
	var err error
	id := len(c.a.pass.turns)
	if c.a.model != nil {
		c.a.model.turn = id
	}
	us := c.a.rec.time(id, "core.turn", "", func() { reply, err = c.sess.Send(ctx, utterance) })
	c.a.c.record(err)
	if err != nil {
		return baselines.Output{}, fmt.Errorf("turn %d: %w", id, err)
	}
	t := turn{us: us, actions: len(reply.Actions), byKind: map[string]int{}}
	for _, act := range reply.Actions {
		t.byKind[act.Action]++
		var q string
		var added int
		if act.Action == llm.ActionRetrieve && act.Err == "" {
			if _, err := fmt.Sscanf(act.Detail, "query=%q added=%d", &q, &added); err == nil {
				t.queries = append(t.queries, q)
			}
		}
	}
	c.a.pass.turns = append(c.a.pass.turns, t)

	state := reply.State
	tokens := llm.EstimateTokens(reply.Message) + llm.EstimateTokens(state.ResultPreview)
	for _, q := range state.Queries {
		tokens += llm.EstimateTokens(q)
	}
	for _, tb := range state.Tables {
		tokens += 8 * len(tb.Columns)
	}
	return baselines.Output{
		Message:          reply.Message,
		MentionedColumns: reply.MentionedColumns,
		State:            &state,
		Answer:           reply.Answer,
		ContextTokens:    tokens,
	}, nil
}

// converse runs every question's conversation once, in plan order. A traced
// pass lends the fixture's timing model the recorder for as long as it runs.
func (p seekerPlan) converse(svc *pneuma.Service, rec *recorder, model *timingModel, c *counts) (*pass, error) {
	out := &pass{}
	sys := &analyst{svc: svc, rec: rec, model: model, c: c, pass: out}
	if model != nil {
		model.rec = rec
		defer func() { model.rec = nil }()
	}
	user := llm.NewSimModel(llm.WithProfile(seekerUserProfile))
	for _, q := range p.questions {
		res, err := harness.RunConversation(context.Background(), sys, q, user, seekerMaxTurns)
		if err != nil {
			return nil, fmt.Errorf("question %s: %w", q.ID, err)
		}
		out.answers = append(out.answers, res.FinalAnswer)
		if res.Converged {
			out.converged++
		}
	}
	return out, nil
}

// correct counts the questions whose final answer matches the oracle's.
func (p seekerPlan) correct(answers []string) int {
	n := 0
	for i, q := range p.questions {
		if q.AnswersMatch(answers[i]) {
			n++
		}
	}
	return n
}

// retrievalShare re-issues every retrieval of a pass as a cache miss and
// returns its share of the pass's turn time: an upper bound, since some of
// the pass's own retrievals were cache hits.
func retrievalShare(svc *pneuma.Service, ps *pass, c *counts) (float64, error) {
	var spent float64
	for _, t := range ps.turns {
		for _, q := range t.queries {
			var err error
			spent += timed(func() {
				// A trailing space is a new cache key over the same terms.
				_, err = svc.Seeker().IR().Query(context.Background(), ir.Request{
					Query: q + " ", K: 8, Sources: []ir.Source{ir.SourceTables, ir.SourceKnowledge}})
			})
			c.record(err)
			if err != nil {
				return 0, fmt.Errorf("re-issue retrieval %q: %w", q, err)
			}
		}
	}
	return spent / sum(ps.latencies()), nil
}

func (w seekerLoad) run(cfg config) (values, counts, error) {
	p, err := w.plan(cfg, newInputs(cfg.seed))
	if err != nil {
		return nil, counts{}, err
	}
	b := &builder{build: func() (*fixture, error) { return newFixture(p.tables) }}
	defer b.close()
	if _, err := b.repeat(cfg.ops(w.setupBuilds, 1)); err != nil {
		return nil, counts{}, err
	}

	var last *pass
	passes := cfg.ops(w.passes, 2)
	t := runReplays(b, false, passes, func(fx *fixture, measured bool, c *counts) ([]float64, error) {
		ps, err := p.converse(fx.svc, nil, nil, c)
		if err != nil {
			return nil, err
		}
		if measured && last != nil && fmt.Sprint(ps.answers) != fmt.Sprint(last.answers) {
			return nil, fmt.Errorf("answers differ from the previous pass: replays diverged")
		}
		if measured {
			last = ps
		}
		return ps.latencies(), nil
	})
	cfg.phase("measured", t.counts)
	if t.firstErr != nil {
		return nil, t.counts, t.firstErr
	}
	heap := heapMB()

	var checks counts
	share, err := retrievalShare(b.cur.svc, last, &checks)
	cfg.phase("sizing", checks)
	if err != nil {
		return nil, checks, err
	}
	total := t.counts
	total.add(checks)
	right := p.correct(last.answers)
	cfg.spread("pass_requests_per_s", t.rates)
	cfg.spread("setup_s", b.samples)
	cfg.note("setup_builds=%d tables=%d questions=%d passes=%d positions=%d converged=%d correct=%d",
		len(b.samples), len(p.tables), len(p.questions), passes, t.samples, last.converged, right)
	if err := cfg.sizing(share < 0.05, "retrieval_share=%.4f (retrieval must be under 0.05 of a turn)", share); err != nil {
		return nil, total, err
	}
	return endToEndValues(t, b.samples, heap, float64(right)/float64(len(p.questions))), total, nil
}

func (w seekerLoad) trace(cfg config) (values, counts, error) {
	in := newInputs(cfg.seed)
	p, err := w.plan(cfg, in)
	if err != nil {
		return nil, counts{}, err
	}
	tr, err := newTracer(cfg, in, p.tables, p.distractors)
	if err != nil {
		return nil, counts{}, err
	}
	defer tr.close()

	var traced *pass
	err = tr.ownRequest(func(rec *recorder, c *counts) ([]float64, error) {
		model := tr.model
		if rec == nil {
			model = nil
		}
		ps, err := p.converse(tr.fx.svc, rec, model, c)
		if err != nil {
			return nil, err
		}
		traced = ps
		return ps.latencies(), nil
	})
	if err == nil {
		err = tr.conversations(traced, len(p.questions))
	}
	if err == nil {
		err = tr.layers(true)
	}
	return tr.finish(err)
}
