package llm

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
)

// skillFunc is one deterministic skill of the SimModel: it receives the
// request (whose Payload it unmarshals) and returns a structured result
// that becomes the response payload.
type skillFunc func(req Request) (interface{}, error)

// skills is the SimModel's one skill table, keyed by Request.Task; the
// skills themselves live in the sim_*.go files. A new skill is one more
// entry here.
var skills = map[string]skillFunc{
	TaskConductorPlan:   skillConductorPlan,
	TaskMaterializePlan: skillMaterializePlan,
	TaskUserSim:         skillUserSim,
	TaskInterpret:       skillInterpret,
	TaskDecompose:       skillDecompose,
}

// SimModel is the deterministic rule-engine language model. It dispatches
// on Request.Task to a skill of the package's skill table (conductor
// planning, integration planning, user simulation, interpretation,
// question decomposition), bills the prompt's tokens (Request.Tokens,
// counted over its parts without rendering it) and the completion's,
// enforces its context window, and reports the latency DefaultLatency
// assigns the call. A SimModel is never written after NewSimModel returns,
// so any number of goroutines may share one.
type SimModel struct {
	name    string
	context int
}

// SimOption configures a SimModel.
type SimOption func(*SimModel)

// WithProfile sets the model's identity and context limit from the pricing
// catalog entry id (e.g. "o4-mini", "o3", "gpt-4o").
func WithProfile(id string) SimOption {
	return func(m *SimModel) {
		if p, err := Lookup(id); err == nil {
			m.name = id
			m.context = p.Context
		}
	}
}

// NewSimModel builds the model. The default profile is o4-mini, the model
// the paper runs Pneuma-Seeker on.
func NewSimModel(opts ...SimOption) *SimModel {
	m := &SimModel{name: "o4-mini", context: Catalog["o4-mini"].Context}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Name implements Model.
func (m *SimModel) Name() string { return m.name }

// ContextLimit implements Model.
func (m *SimModel) ContextLimit() int { return m.context }

// Complete implements Model. The context is honored before any simulated
// inference: a canceled ctx returns ctx.Err() without billing tokens.
func (m *SimModel) Complete(ctx context.Context, req Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	inTokens := req.Tokens()
	if inTokens > m.context {
		return Response{}, fmt.Errorf("%w: prompt is %d tokens, %s allows %d",
			ErrContextLengthExceeded, inTokens, m.name, m.context)
	}
	skill, ok := skills[req.Task]
	if !ok {
		return Response{}, fmt.Errorf("llm: sim model has no skill %q (known: %v)", req.Task, skillNames())
	}
	result, err := skill(req)
	if err != nil {
		return Response{}, fmt.Errorf("llm: skill %s: %w", req.Task, err)
	}
	payload, err := json.Marshal(result)
	if err != nil {
		return Response{}, fmt.Errorf("llm: skill %s produced unmarshalable result: %w", req.Task, err)
	}
	text := string(payload)
	usage := Usage{InTokens: inTokens, OutTokens: EstimateTokens(text)}
	return Response{
		Text:    text,
		Payload: payload,
		Usage:   usage,
		Latency: DefaultLatency.For(usage),
	}, nil
}

func skillNames() []string {
	names := make([]string, 0, len(skills))
	for n := range skills {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DecodePayload unmarshals a request payload into dst with a helpful error.
func DecodePayload(req Request, dst interface{}) error {
	if len(req.Payload) == 0 {
		return fmt.Errorf("request for task %s has no payload", req.Task)
	}
	if err := json.Unmarshal(req.Payload, dst); err != nil {
		return fmt.Errorf("payload for task %s does not decode: %w", req.Task, err)
	}
	return nil
}

// DecodeResponse unmarshals a response payload into dst.
func DecodeResponse(resp Response, dst interface{}) error {
	if err := json.Unmarshal(resp.Payload, dst); err != nil {
		return fmt.Errorf("response payload does not decode: %w", err)
	}
	return nil
}

// Task names for the built-in skills.
const (
	// TaskConductorPlan is the Conductor's next-action planning skill.
	TaskConductorPlan = "conductor-plan"
	// TaskMaterializePlan is the Materializer's integration-planning skill
	// (also used for repair: the payload carries the last error).
	TaskMaterializePlan = "materialize-plan"
	// TaskUserSim is the LLM Sim user-simulation skill.
	TaskUserSim = "user-sim"
	// TaskInterpret is the RAG baseline's retrieve-then-interpret skill.
	TaskInterpret = "interpret"
	// TaskDecompose is DS-Guru's question-decomposition skill.
	TaskDecompose = "decompose"
)
