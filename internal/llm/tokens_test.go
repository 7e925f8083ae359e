package llm

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unicode/utf8"

	"pneuma/internal/racebuild"
)

// estimateTokensReference is EstimateTokens as it was before it became a
// streaming counter, kept verbatim: the counter must agree with it bit for
// bit, so no prompt's bill moves.
func estimateTokensReference(text string) int {
	if text == "" {
		return 0
	}
	tokens := 0
	wordLen := 0
	flush := func() {
		if wordLen == 0 {
			return
		}
		t := (wordLen + 3) / 4
		if t < 1 {
			t = 1
		}
		tokens += t
		wordLen = 0
	}
	for _, r := range text {
		switch r {
		case ' ', '\n', '\t', '\r':
			flush()
		default:
			wordLen += utf8.RuneLen(r)
		}
	}
	flush()
	return tokens
}

// fuzzRequest builds a request from fuzz input. In sections, 0x00 starts a
// new section and 0x01 a new part of the current one; a section's first
// field is its title, so "T" is a section with no parts and "T\x01" one
// with one empty part.
func fuzzRequest(system, task, sections string, payload []byte) Request {
	r := Request{System: system, Task: task, Payload: payload}
	if sections == "" {
		return r
	}
	for _, sec := range strings.Split(sections, "\x00") {
		fields := strings.Split(sec, "\x01")
		r.Sections = append(r.Sections, Section{Title: fields[0], Body: fields[1:]})
	}
	return r
}

// FuzzTokensMatchRender holds Request.Tokens, which counts a prompt over
// its parts, to EstimateTokens of the rendered prompt, and EstimateTokens
// to the range-based counter it replaced. It also cuts the first part of
// every short section at every byte, so words and multi-byte runes split
// across a boundary are counted as if whole.
func FuzzTokensMatchRender(f *testing.F) {
	f.Add("sys", "task", "DOCUMENTS\x01table a\x01table b", []byte(`{"k":"v"}`))
	f.Add("", "", "", []byte(nil))
	f.Add("s", "t", "EMPTY", []byte(nil))
	f.Add("s", "t", "E\x01\x01\x01", []byte("x"))
	f.Add("split", "wo", "S\x01wo\x01rd\x00T\x01across\x01", []byte("rd"))
	f.Add("tabs\tand\r\ncr", "  runs   of\t\t space ", "A\x01\r\n\t \x01x\r", []byte(" \t\n"))
	f.Add("\xe2\x82", "\xac", "\xe2\x01\x82\x01\xac\x00\xf0\x9f\x01\x98\x80", []byte("\xff\xfe\xc3"))
	f.Add("ok\xff", "\xed\xa0\x80", "R\x01\xef\xbf\xbd\x01\xc3\x01(\x01\xf4\x90\x80\x80", []byte("\xe2\x28\xa1"))
	f.Add("ünïcödé", "日本語", "M\x01naïve\x01 café\x00N\x01𝄞\x01", []byte(`{"name":"Zürich"}`))
	f.Fuzz(func(t *testing.T, system, task, sections string, payload []byte) {
		r := fuzzRequest(system, task, sections, payload)
		text := r.Render()
		if got, want := EstimateTokens(text), estimateTokensReference(text); got != want {
			t.Fatalf("EstimateTokens(%q) = %d, reference %d", text, got, want)
		}
		if got, want := r.Tokens(), EstimateTokens(text); got != want {
			t.Fatalf("Tokens() = %d, EstimateTokens(Render()) = %d\nrender %q", got, want, text)
		}
		for si, s := range r.Sections {
			if len(s.Body) == 0 || len(s.Body[0]) > 64 {
				continue
			}
			want := r.Tokens()
			whole := s.Body[0]
			for cut := 0; cut <= len(whole); cut++ {
				body := append([]string{whole[:cut], whole[cut:]}, s.Body[1:]...)
				r.Sections[si].Body = body
				if got := r.Tokens(); got != want {
					t.Fatalf("section %d cut at %d of %q: Tokens() = %d, want %d", si, cut, whole, got, want)
				}
			}
			r.Sections[si].Body = s.Body
		}
	})
}

// TestCompleteBillIsNotPromptSized: SimModel bills a conductor-plan call
// without copying its prompt, so the call allocates the same whether its
// DOCUMENTS parts total 10 KB or 1 MB.
func TestCompleteBillIsNotPromptSized(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("allocation budget: race instrumentation changes allocations")
	}
	// Sonnet 4.5's million-token window holds the 1 MB prompt (≈300k
	// tokens), so the skill runs at both sizes.
	m := NewSimModel(WithProfile("sonnet-4.5"))
	payload := MarshalPayload(ConductorInput{UserMessages: []string{"How much potassium is in the soil samples?"}})
	request := func(docBytes int) Request {
		var parts []string
		for n, i := 0, 0; n < docBytes; i++ {
			part := fmt.Sprintf("Table soil_samples_%d: site_id (int), potassium_ppm (float), sampled_on (date)\n"+
				"| %d | %d.25 | 2021-03-%02d |\n", i, i, i%997, i%28+1)
			parts = append(parts, part)
			n += len(part)
		}
		return Request{
			Task:     TaskConductorPlan,
			System:   "You are the Conductor.",
			Sections: []Section{{Title: "DOCUMENTS", Body: parts}},
			Payload:  payload,
		}
	}
	alloc := func(req Request) uint64 {
		least := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := m.Complete(context.Background(), req); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	small, large := request(10<<10), request(1<<20)
	if n := large.Tokens(); n > m.ContextLimit() {
		t.Fatalf("the 1 MB request is %d tokens, over the %d-token context", n, m.ContextLimit())
	}
	a, b := alloc(small), alloc(large)
	t.Logf("Complete allocates %d B at 10 KB of DOCUMENTS, %d B at 1 MB", a, b)
	if b > a && b-a > 16<<10 {
		t.Fatalf("Complete allocates %d B more at 1 MB of DOCUMENTS than at 10 KB: the bill copies the prompt", b-a)
	}
}

// TestPayloadCountedInPlace: counting a request's payload allocates
// nothing, so the []byte is walked without a conversion to string.
func TestPayloadCountedInPlace(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("allocation budget: race instrumentation changes allocations")
	}
	r := Request{Task: "t", Payload: bytes.Repeat([]byte(`{"k":"välue"} `), 1000)}
	if n := testing.AllocsPerRun(10, func() { r.Tokens() }); n != 0 {
		t.Fatalf("Tokens allocates %.0f times", n)
	}
}
