// Package llm is the project's language-model substrate and the central
// substitution of this reproduction (see the opening of the README): the
// paper runs Pneuma-Seeker on OpenAI O4-mini (and simulates users with
// GPT-4o); offline Go has neither, so this package provides
//
//   - a Model interface every agent talks through,
//   - exact token accounting over rendered prompts (Table 2),
//   - a per-model pricing catalog and context limits (Table 2 and the O3
//     context-overflow experiment),
//   - a deterministic latency model (the 70.26 s/prompt trade-off), and
//   - SimModel, a rule-engine model whose "skills" (conductor planning,
//     integration planning, user simulation, interpretation, question
//     decomposition) are deterministic implementations operating on
//     structured payloads, held in one package-level table.
//
// Because every agent interaction flows through Complete with a rendered
// text prompt, context-size pressures are real: a component that stuffs too
// much into its prompt genuinely overflows the model's context window. That
// is what makes the paper's context-specialization claim measurable here.
package llm

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"
)

// ErrContextLengthExceeded is returned when a request's rendered prompt
// exceeds the model's context window — the error the paper's O3 whole-table
// baseline hits on most questions.
var ErrContextLengthExceeded = errors.New("llm: context length exceeded")

// Section is one titled block of prompt context. Components build prompts
// from sections so specialization (which sections a component includes) is
// explicit and measurable.
type Section struct {
	Title string
	Body  string
}

// Request is one model invocation.
type Request struct {
	// Task names the skill being requested (e.g. "conductor-plan"). A real
	// hosted model would ignore it; SimModel dispatches on it.
	Task string
	// System is the role-specialization system prompt (§3.1: "prompting an
	// LLM with distinct roles can help focus its behavior").
	System string
	// Sections is the specialized context for this call.
	Sections []Section
	// Payload is the machine-readable core of the prompt; it is rendered
	// into the prompt text (and counted in tokens) and parsed by SimModel.
	Payload json.RawMessage
}

// Render produces the full prompt text that is token-counted. SimModel also
// receives the structured payload, but the *cost* of a request is always
// the cost of this rendering.
func (r Request) Render() string {
	var b strings.Builder
	b.WriteString("## SYSTEM\n")
	b.WriteString(r.System)
	b.WriteString("\n## TASK\n")
	b.WriteString(r.Task)
	b.WriteByte('\n')
	for _, s := range r.Sections {
		b.WriteString("## ")
		b.WriteString(s.Title)
		b.WriteByte('\n')
		b.WriteString(s.Body)
		b.WriteByte('\n')
	}
	if len(r.Payload) > 0 {
		b.WriteString("## PAYLOAD\n")
		b.Write(r.Payload)
		b.WriteByte('\n')
	}
	return b.String()
}

// Usage is the token bill for one call.
type Usage struct {
	InTokens  int
	OutTokens int
}

// Add accumulates another usage.
func (u *Usage) Add(o Usage) {
	u.InTokens += o.InTokens
	u.OutTokens += o.OutTokens
}

// Response is one model completion.
type Response struct {
	// Text is the rendered completion (what a hosted model would return).
	Text string
	// Payload is the structured completion SimModel produced; agents parse
	// this instead of re-parsing Text.
	Payload json.RawMessage
	// Usage is the token bill.
	Usage Usage
	// Latency is the simulated wall-clock latency of the call.
	Latency time.Duration
}

// Model is the language-model interface all agents depend on.
type Model interface {
	// Name returns the model identifier (matches the pricing catalog).
	Name() string
	// ContextLimit returns the context window in tokens.
	ContextLimit() int
	// Complete runs one completion. A canceled ctx aborts the call before
	// any (simulated) inference happens and returns ctx.Err().
	Complete(ctx context.Context, req Request) (Response, error)
}

// Meter accumulates usage and simulated latency across calls, optionally
// per component — the instrument behind Table 2 and the latency trade-off.
// Recording is safe for concurrent use (many sessions share the system
// meter under the Service); the counters are unexported and read through
// Snapshot, so there is no way to race a recording session by accident.
type Meter struct {
	mu           sync.Mutex
	total        Usage
	calls        int
	totalLatency time.Duration
	byComponent  map[string]*Usage
}

// MeterSnapshot is a consistent point-in-time copy of a Meter, safe to read
// while other goroutines keep recording.
type MeterSnapshot struct {
	// Total is the summed usage at snapshot time.
	Total Usage
	// Calls is the completed-call count at snapshot time.
	Calls int
	// TotalLatency is the accumulated simulated latency at snapshot time.
	TotalLatency time.Duration
	// ByComponent holds per-component usage copies.
	ByComponent map[string]Usage
}

// NewMeter creates an empty meter.
func NewMeter() *Meter {
	return &Meter{byComponent: make(map[string]*Usage)}
}

// Record adds one call's usage under the given component label.
func (m *Meter) Record(component string, resp Response) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.total.Add(resp.Usage)
	m.calls++
	m.totalLatency += resp.Latency
	if m.byComponent == nil {
		m.byComponent = make(map[string]*Usage)
	}
	cu, ok := m.byComponent[component]
	if !ok {
		cu = &Usage{}
		m.byComponent[component] = cu
	}
	cu.Add(resp.Usage)
}

// Snapshot returns a consistent copy of the meter's counters — the only
// read path, safe while other goroutines keep recording.
func (m *Meter) Snapshot() MeterSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := MeterSnapshot{
		Total:        m.total,
		Calls:        m.calls,
		TotalLatency: m.totalLatency,
		ByComponent:  make(map[string]Usage, len(m.byComponent)),
	}
	for k, v := range m.byComponent {
		s.ByComponent[k] = *v
	}
	return s
}

// meterKey is the context key WithMeter stores a per-request meter under.
type meterKey struct{}

// WithMeter attaches a per-request (typically per-session) meter to the
// context. Every MeteredModel call made under this context records into it
// in addition to the model's own (system-wide) meter, which is how Table-2
// style accounting stays attributable per session under concurrency.
func WithMeter(ctx context.Context, m *Meter) context.Context {
	if m == nil {
		return ctx
	}
	return context.WithValue(ctx, meterKey{}, m)
}

// MeterFromContext returns the meter attached by WithMeter, or nil.
func MeterFromContext(ctx context.Context) *Meter {
	m, _ := ctx.Value(meterKey{}).(*Meter)
	return m
}

// MeteredModel wraps a Model so every call is recorded on a Meter under a
// component label, plus on any per-request meter the context carries.
type MeteredModel struct {
	Inner     Model
	Meter     *Meter
	Component string
}

// Name implements Model.
func (m *MeteredModel) Name() string { return m.Inner.Name() }

// ContextLimit implements Model.
func (m *MeteredModel) ContextLimit() int { return m.Inner.ContextLimit() }

// Complete implements Model, recording usage on success and on context
// overflow (a failed over-long call still costs the caller a round trip in
// practice; we record zero usage for it but count the call). Usage is
// recorded on the model's own meter and on the context meter (WithMeter),
// when the two differ.
func (m *MeteredModel) Complete(ctx context.Context, req Request) (Response, error) {
	resp, err := m.Inner.Complete(ctx, req)
	if err != nil {
		return resp, err
	}
	if m.Meter != nil {
		m.Meter.Record(m.Component, resp)
	}
	if cm := MeterFromContext(ctx); cm != nil && cm != m.Meter {
		cm.Record(m.Component, resp)
	}
	return resp, nil
}

// MarshalPayload is a small helper that panics on marshal failure — the
// payload DTOs are plain structs, so failure is a programming error.
func MarshalPayload(v interface{}) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("llm: marshal payload: %v", err))
	}
	return b
}
