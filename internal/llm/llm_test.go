package llm

import (
	"context"
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestEstimateTokens(t *testing.T) {
	if EstimateTokens("") != 0 {
		t.Error("empty text must cost 0")
	}
	if got := EstimateTokens("hi"); got != 1 {
		t.Errorf("short word = %d, want 1", got)
	}
	// ~4 chars per token for long words.
	if got := EstimateTokens("internationalization"); got != 5 {
		t.Errorf("long word = %d, want 5", got)
	}
	// Monotone in content.
	f := func(a, b string) bool {
		return EstimateTokens(a+" "+b) >= EstimateTokens(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPricingTable2Values(t *testing.T) {
	// The paper's stated O4-mini prices ($1.1/$4.4 per 1M) against its
	// reported Table 2 archaeology row (248,351 in / 2,854 out → $0.27/$0.01).
	p := Catalog["o4-mini"]
	in, out := p.Cost(Usage{InTokens: 248_351, OutTokens: 2_854})
	if in < 0.26 || in > 0.28 {
		t.Errorf("o4-mini input cost = %.4f, want ~0.27", in)
	}
	if out < 0.01 || out > 0.02 {
		t.Errorf("o4-mini output cost = %.4f, want ~0.013", out)
	}
	// Sonnet 4.5's long-context tier kicks in above 200k input tokens.
	s := Catalog["sonnet-4.5"]
	inLong, _ := s.Cost(Usage{InTokens: 248_351})
	if inLong < 1.45 || inLong > 1.55 {
		t.Errorf("sonnet long-context input cost = %.4f, want ~1.49", inLong)
	}
	inShort, _ := s.Cost(Usage{InTokens: 149_011})
	if inShort < 0.43 || inShort > 0.47 {
		t.Errorf("sonnet standard input cost = %.4f, want ~0.45", inShort)
	}
}

func TestLookupUnknownModel(t *testing.T) {
	if _, err := Lookup("bogus-model"); err == nil {
		t.Fatal("unknown model must error")
	}
	if _, err := Lookup("o3"); err != nil {
		t.Fatalf("o3 lookup failed: %v", err)
	}
}

func TestLatencyModel(t *testing.T) {
	l := LatencyModel{PerCall: time.Second, PerInToken: time.Millisecond, PerOutToken: 10 * time.Millisecond}
	got := l.For(Usage{InTokens: 100, OutTokens: 10})
	want := time.Second + 100*time.Millisecond + 100*time.Millisecond
	if got != want {
		t.Errorf("latency = %v, want %v", got, want)
	}
}

func TestSimModelContextLimit(t *testing.T) {
	m := NewSimModel(WithProfile("gpt-4o"))
	system := strings.Repeat("word ", 130_000)
	if n := EstimateTokens(system); n <= m.ContextLimit() {
		t.Fatalf("prompt is %d tokens, not past the %d-token window", n, m.ContextLimit())
	}
	_, err := m.Complete(context.Background(), Request{
		Task:    TaskUserSim,
		System:  system,
		Payload: MarshalPayload(UserSimInput{}),
	})
	if !errors.Is(err, ErrContextLengthExceeded) {
		t.Fatalf("err = %v, want context length exceeded", err)
	}
}

func TestSimModelUnknownSkill(t *testing.T) {
	m := NewSimModel()
	if _, err := m.Complete(context.Background(), Request{Task: "no-such-skill"}); err == nil {
		t.Fatal("unknown skill must error")
	}
}

func TestSimModelProfiles(t *testing.T) {
	m := NewSimModel(WithProfile("gpt-4o"))
	if m.Name() != "gpt-4o" || m.ContextLimit() != 128_000 {
		t.Fatalf("profile not applied: %s/%d", m.Name(), m.ContextLimit())
	}
}

func TestMeteredModel(t *testing.T) {
	meter := NewMeter()
	m := &MeteredModel{Inner: NewSimModel(), Meter: meter, Component: "test"}
	_, err := m.Complete(context.Background(), Request{
		Task:    TaskUserSim,
		Payload: MarshalPayload(UserSimInput{Need: NeedSpec{Topic: "things", QuestionText: "q"}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := meter.Snapshot()
	if snap.Calls != 1 || snap.Total.InTokens == 0 || snap.Total.OutTokens == 0 {
		t.Fatalf("meter not recording: %+v", snap)
	}
	if _, ok := snap.ByComponent["test"]; !ok {
		t.Fatal("per-component usage missing")
	}
}

func TestRequestRenderIncludesPayload(t *testing.T) {
	req := Request{Task: "x", System: "sys", Sections: []Section{{Title: "S", Body: []string{"bo", "dy"}}},
		Payload: MarshalPayload(map[string]string{"k": "v"})}
	r := req.Render()
	for _, want := range []string{"sys", "## TASK", "x", "## S", "body", `"k":"v"`} {
		if !strings.Contains(r, want) {
			t.Errorf("render missing %q:\n%s", want, r)
		}
	}
}

// TestMeterFromContext: a per-request meter attached to the context is
// recorded in addition to the model's own meter — the mechanism behind
// per-session accounting under the Service.
func TestMeterFromContext(t *testing.T) {
	system := NewMeter()
	session := NewMeter()
	m := &MeteredModel{Inner: NewSimModel(), Meter: system, Component: "conductor"}
	ctx := WithMeter(context.Background(), session)
	if got := MeterFromContext(ctx); got != session {
		t.Fatal("MeterFromContext did not return the attached meter")
	}
	if _, err := m.Complete(ctx, Request{
		Task:    TaskUserSim,
		Payload: MarshalPayload(UserSimInput{Need: NeedSpec{Topic: "things", QuestionText: "q"}}),
	}); err != nil {
		t.Fatal(err)
	}
	sys, sess := system.Snapshot(), session.Snapshot()
	if sess.Calls != 1 || sys.Calls != 1 {
		t.Fatalf("calls: system=%d session=%d, want 1/1", sys.Calls, sess.Calls)
	}
	if sess.Total != sys.Total {
		t.Fatalf("usage diverged: system=%+v session=%+v", sys.Total, sess.Total)
	}
	if MeterFromContext(context.Background()) != nil {
		t.Fatal("MeterFromContext on a bare context should be nil")
	}
}

// TestCompleteHonorsContext: a canceled context aborts before billing.
func TestCompleteHonorsContext(t *testing.T) {
	meter := NewMeter()
	m := &MeteredModel{Inner: NewSimModel(), Meter: meter, Component: "x"}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Complete(ctx, Request{Task: TaskUserSim}); err == nil {
		t.Fatal("Complete with canceled ctx succeeded")
	}
	if meter.Snapshot().Calls != 0 {
		t.Fatal("canceled call was billed")
	}
}
