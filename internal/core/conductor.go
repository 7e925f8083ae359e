package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"pneuma/internal/ir"
	"pneuma/internal/llm"
	"pneuma/internal/sqlengine"
)

// DefaultMaxActions is the paper's action cap i = 5 (§3.2): "Conductor
// limits the number of consecutive actions to a fixed value i ... to
// prevent (T, Q) from moving away from the latent information need before
// user feedback can correct it, while also avoiding long autonomous runs."
const DefaultMaxActions = 5

// ActionLog records one Conductor action for the trace shown in the CLI and
// analyzed by tests and ablations.
type ActionLog struct {
	Action    string
	Reasoning string
	Detail    string
	Err       string
}

// Reply is the user-facing outcome of one Conductor turn.
type Reply struct {
	// Message is the user-facing communication the turn ended with. §3.2:
	// every action sequence ends with a user-facing message, forced if the
	// action limit is reached first.
	Message string
	// Clarify marks the message as a clarifying question.
	Clarify bool
	// Forced marks a message produced by the action-limit interrupt.
	Forced bool
	// MentionedColumns is the interpreted column surface of the message.
	MentionedColumns []llm.MentionedColumn
	// State is the surfaced (T, Q) view (Figure 2 box 3).
	State llm.StateInfo
	// Answer is the scalar answer when Q has been executed.
	Answer string
	// Actions is the trace of this turn.
	Actions []ActionLog
}

// Conductor drives Pneuma-Seeker toward convergence by selecting actions on
// the fly (§3.2): internal reasoning, tool calls (IR System, Materializer,
// SQL Executor), state modification, and user-facing communication.
type Conductor struct {
	model        llm.Model
	irsys        *ir.System
	materializer *Materializer
	maxActions   int
	webSearch    bool
	// sampleVals bounds the samples serialized per column into the
	// specialized planning context.
	sampleVals int
	// specialized toggles context specialization (the §3.1 ablation in
	// bench_test.go): when false, the conductor's prompt also carries the
	// materializer-grade context (full sample payloads) for every call.
	specialized bool
	// dynamicPlanning toggles the conductor loop vs the fixed static
	// pipeline of §3.5.
	dynamicPlanning bool
}

// Turn runs one user turn: up to maxActions Conductor actions ending in a
// user-facing message. The context bounds every model call and retrieval
// the turn makes.
func (c *Conductor) Turn(ctx context.Context, sess *Session, userMessage string) (Reply, error) {
	sess.UserMessages = append(sess.UserMessages, userMessage)
	if c.dynamicPlanning {
		return c.dynamicTurn(ctx, sess)
	}
	return c.staticTurn(ctx, sess)
}

// dynamicTurn is the paper's conductor loop.
func (c *Conductor) dynamicTurn(ctx context.Context, sess *Session) (Reply, error) {
	var reply Reply
	lastError := ""
	retrievalRounds := sess.RetrievalRounds

	for action := 0; action < c.maxActions; action++ {
		if err := ctx.Err(); err != nil {
			return Reply{}, err
		}
		decision, err := c.plan(ctx, sess, lastError, action, retrievalRounds)
		if err != nil {
			if errors.Is(err, llm.ErrContextLengthExceeded) {
				// Specialization failed to bound the context; shed the
				// lowest-ranked documents and retry once per action.
				sess.shedDocs()
				decision, err = c.plan(ctx, sess, lastError, action, retrievalRounds)
			}
			if err != nil {
				return Reply{}, err
			}
		}
		log := ActionLog{Action: decision.Action, Reasoning: decision.Reasoning}
		lastError = ""

		switch decision.Action {
		case llm.ActionRetrieve:
			res, err := c.irsys.Query(ctx, ir.Request{
				Query:   decision.RetrievalQuery,
				K:       8,
				Sources: toSources(decision.Sources, c.webSearch),
			})
			if err != nil {
				lastError = err.Error()
				log.Err = lastError
			} else {
				added := sess.mergeDocs(res.Documents)
				retrievalRounds++
				sess.RetrievalRounds = retrievalRounds
				log.Detail = fmt.Sprintf("query=%q added=%d", decision.RetrievalQuery, added)
				if res.Degraded != nil {
					// Partial fusion: good sources answered, the failures
					// ride along in the action log for the trace.
					log.Err = res.Degraded.Error()
				}
			}

		case llm.ActionUpdateState:
			sess.State.SetModel(decision.StateTables, decision.StateQueries)
			log.Detail = fmt.Sprintf("T=%d table(s), Q=%d query(ies)", len(decision.StateTables), len(decision.StateQueries))

		case llm.ActionMaterialize:
			if len(sess.State.Specs) == 0 {
				lastError = "cannot materialize: T is not defined yet"
				log.Err = lastError
				break
			}
			for _, spec := range sess.State.Specs {
				res, err := c.materializer.materialize(ctx, spec, sess.Docs, sess.State.Queries, &sess.memo)
				if err != nil {
					lastError = err.Error()
					log.Err = lastError
					break
				}
				sess.State.SetMaterialized(spec.Name, res.Table)
				log.Detail += fmt.Sprintf("%s: %d rows (%d repair(s)); ", spec.Name, res.Table.NumRows(), res.Repairs)
			}

		case llm.ActionExecute:
			out, err := c.executeQ(sess)
			if err != nil {
				lastError = err.Error()
				log.Err = lastError
			} else if out != nil {
				log.Detail = fmt.Sprintf("result: %dx%d", out.NumRows(), out.NumCols())
			}

		case llm.ActionRespond, llm.ActionClarify:
			reply.Message = decision.Message
			reply.Clarify = decision.Action == llm.ActionClarify
			reply.MentionedColumns = decision.MentionedColumns
			reply.State = sess.State.Info(c.sampleVals)
			if ans, ok := sess.State.Answer(); ok {
				reply.Answer = ans
			}
			reply.Actions = append(sess.drainActions(), log)
			return reply, nil

		default:
			lastError = fmt.Sprintf("unknown action %q", decision.Action)
			log.Err = lastError
		}
		sess.pushAction(log)
	}

	// Action limit reached without a user-facing message: the system
	// interrupts and forces one (§3.2).
	reply.Forced = true
	reply.Message = c.forcedSummary(sess, lastError)
	reply.State = sess.State.Info(c.sampleVals)
	if ans, ok := sess.State.Answer(); ok {
		reply.Answer = ans
	}
	reply.Actions = sess.drainActions()
	return reply, nil
}

// staticTurn is the fixed pipeline of §3.5: retrieve top-k → define (T, Q)
// → materialize → execute → respond, with no re-planning, no clarification
// recovery and no extra retrieval rounds.
func (c *Conductor) staticTurn(ctx context.Context, sess *Session) (Reply, error) {
	var reply Reply

	// Step 1 (fixed): retrieve with the latest message.
	res, err := c.irsys.Query(ctx, ir.Request{
		Query:   sess.UserMessages[len(sess.UserMessages)-1],
		K:       5,
		Sources: toSources(nil, c.webSearch),
	})
	step1 := ActionLog{Action: llm.ActionRetrieve, Reasoning: "static pipeline step 1"}
	if err == nil {
		sess.mergeDocs(res.Documents)
		sess.RetrievalRounds++
		if res.Degraded != nil {
			// Partial fusion: record the per-source failures in the trace,
			// exactly as the dynamic conductor loop does.
			step1.Err = res.Degraded.Error()
		}
	} else {
		step1.Err = err.Error()
	}
	sess.pushAction(step1)

	// Step 2 (fixed): one planning call to define (T, Q).
	decision, err := c.plan(ctx, sess, "", 0, sess.RetrievalRounds)
	if err != nil {
		return Reply{}, err
	}
	if decision.Action == llm.ActionUpdateState {
		sess.State.SetModel(decision.StateTables, decision.StateQueries)
		sess.pushAction(ActionLog{Action: llm.ActionUpdateState, Reasoning: "static pipeline step 2"})

		// Step 3 (fixed): materialize, no repairs beyond the materializer's
		// own budget (which the Seeker sets to zero in static mode).
		matFailed := false
		for _, spec := range sess.State.Specs {
			mres, err := c.materializer.materialize(ctx, spec, sess.Docs, sess.State.Queries, &sess.memo)
			if err != nil {
				matFailed = true
				sess.pushAction(ActionLog{Action: llm.ActionMaterialize, Err: err.Error()})
				break
			}
			sess.State.SetMaterialized(spec.Name, mres.Table)
		}
		// Step 4 (fixed): execute.
		if !matFailed {
			if _, err := c.executeQ(sess); err != nil {
				sess.pushAction(ActionLog{Action: llm.ActionExecute, Err: err.Error()})
			}
		}
	}

	// Step 5 (fixed): respond with whatever happened.
	reply.State = sess.State.Info(c.sampleVals)
	if ans, ok := sess.State.Answer(); ok {
		reply.Answer = ans
		reply.Message = fmt.Sprintf("Computed result: %s", ans)
	} else if decision.Message != "" {
		reply.Message = decision.Message
		reply.MentionedColumns = decision.MentionedColumns
	} else {
		reply.Message = "The pipeline ran but produced no result."
	}
	reply.Actions = sess.drainActions()
	return reply, nil
}

// plan makes one conductor-plan model call with the specialized context.
func (c *Conductor) plan(ctx context.Context, sess *Session, lastError string, actionsTaken, retrievalRounds int) (llm.ConductorDecision, error) {
	sampleVals := c.sampleVals
	if !c.specialized {
		// Ablation: the merged mega-context carries materializer-grade
		// payloads on every planning call.
		sampleVals = 40
	}
	in := llm.ConductorInput{
		UserMessages:     sess.UserMessages,
		State:            sess.State.Info(sampleVals),
		Knowledge:        sess.KnowledgeNotes,
		LastError:        lastError,
		ActionsTaken:     actionsTaken,
		RetrievalRounds:  retrievalRounds,
		WebSearchEnabled: c.webSearch,
	}
	for _, d := range sess.Docs {
		in.Docs = append(in.Docs, sess.docInfo(d, sampleVals))
	}
	req := llm.Request{
		Task: llm.TaskConductorPlan,
		System: "You are the Conductor of Pneuma-Seeker. Evaluate the current state " +
			"(T, Q), the retrieved data and the user's feedback, and select the single " +
			"best next action to align the state with the user's information need. " +
			"Ground every decision in retrieved data, never in assumptions.",
		Payload: llm.MarshalPayload(in),
	}
	// The planning prompt carries rendered summaries (schema + a few sample
	// rows) of every retrieved document — grounding costs real context,
	// which is what Table 2 measures. The session's cached summaries are
	// the section's parts, billed without being concatenated.
	req.Sections = append(req.Sections, llm.Section{Title: "DOCUMENTS", Body: sess.docSummaries(10)})
	if !c.specialized {
		// The unspecialized prompt also drags in the raw document summaries
		// as prose, inflating context the way a single mega-agent would.
		req.Sections = append(req.Sections, llm.Section{Title: "ALL_CONTEXT", Body: sess.docSummaries(40)})
	}
	resp, err := c.model.Complete(ctx, req)
	if err != nil {
		return llm.ConductorDecision{}, err
	}
	var dec llm.ConductorDecision
	if err := llm.DecodeResponse(resp, &dec); err != nil {
		return llm.ConductorDecision{}, err
	}
	return dec, nil
}

// executeQ runs every query in Q against the materialized tables plus the
// retrieved source tables, recording the last result. Execution errors are
// routed through one materializer repair round (e.g. a numeric aggregate
// hitting unparsed text), mirroring §3.4's error feedback.
func (c *Conductor) executeQ(sess *Session) (out interface {
	NumRows() int
	NumCols() int
}, err error) {
	eng := sqlengine.NewEngine()
	for name, t := range sess.State.Materialized {
		eng.RegisterAs(name, t)
	}
	for _, d := range sess.Docs {
		if d.Table != nil {
			if _, exists := eng.Table(d.Table.Schema.Name); !exists {
				eng.Register(d.Table)
			}
		}
	}
	var last *sqlResult
	for _, q := range sess.State.Queries {
		res, qerr := eng.Query(q)
		if qerr != nil {
			return nil, fmt.Errorf("SQL executor: %w", qerr)
		}
		last = &sqlResult{res.NumRows(), res.NumCols()}
		sess.State.SetResult(res)
	}
	if last == nil {
		return nil, errors.New("SQL executor: Q is empty")
	}
	return last, nil
}

type sqlResult struct{ rows, cols int }

func (r *sqlResult) NumRows() int { return r.rows }
func (r *sqlResult) NumCols() int { return r.cols }

// forcedSummary is the interrupt message when the action budget runs out.
func (c *Conductor) forcedSummary(sess *Session, lastError string) string {
	var b strings.Builder
	b.WriteString("I hit my per-turn action limit, so here is where things stand: ")
	if len(sess.State.Specs) > 0 {
		fmt.Fprintf(&b, "T has %d target table(s) and Q has %d query(ies). ",
			len(sess.State.Specs), len(sess.State.Queries))
	} else {
		b.WriteString("I have not settled on a target schema yet. ")
	}
	if lastError != "" {
		fmt.Fprintf(&b, "The last step failed with: %s. ", lastError)
	}
	b.WriteString("Please confirm the direction or refine the request so I can continue.")
	return b.String()
}

func toSources(names []string, webOn bool) []ir.Source {
	if len(names) == 0 {
		if webOn {
			return nil // all
		}
		return []ir.Source{ir.SourceTables, ir.SourceKnowledge}
	}
	var out []ir.Source
	for _, n := range names {
		s := ir.Source(n)
		if s == ir.SourceWeb && !webOn {
			continue
		}
		out = append(out, s)
	}
	return out
}
