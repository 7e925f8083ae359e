package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pneuma"
	"pneuma/internal/leakcheck"
)

// newTestServer boots a Service over the archaeology corpus and mounts the
// handler tree on an httptest server.
func newTestServer(t *testing.T, cfg Config, opts ...pneuma.Option) (*httptest.Server, *pneuma.Service) {
	t.Helper()
	svc, err := pneuma.New(pneuma.ArchaeologyDataset(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	cfg.Service = svc
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, svc
}

func postJSON(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding response body: %v", err)
	}
}

// TestSessionLifecycle drives one full conversation over the wire: create,
// send, close, and the 400 for addressing the closed session afterwards.
func TestSessionLifecycle(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	ts, _ := newTestServer(t, Config{})

	resp := postJSON(t, ts.URL+"/v1/sessions", `{"user":"alice"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create session = %d, want 201", resp.StatusCode)
	}
	var created struct {
		SessionID string `json:"session_id"`
	}
	decodeBody(t, resp, &created)
	if created.SessionID == "" {
		t.Fatal("create session returned no session_id")
	}

	resp = postJSON(t, ts.URL+"/v1/sessions/"+created.SessionID+"/messages",
		`{"message":"What tables describe soil samples?"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("send = %d, want 200", resp.StatusCode)
	}
	var sent sendResponse
	decodeBody(t, resp, &sent)
	if sent.Reply.Message == "" {
		t.Error("send returned an empty reply message")
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+created.SessionID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("close session = %d, want 204", resp.StatusCode)
	}

	resp = postJSON(t, ts.URL+"/v1/sessions/"+created.SessionID+"/messages", `{"message":"hello?"}`)
	var errBody errorBody
	code := resp.StatusCode
	decodeBody(t, resp, &errBody)
	if code != http.StatusBadRequest || errBody.Code != "bad query" {
		t.Errorf("send to closed session = %d code %q, want 400 %q", code, errBody.Code, "bad query")
	}
}

// TestSendStreamsSSE: a ?stream=sse send delivers the turn as server-sent
// events — an accepted event first, a terminal reply event last.
func TestSendStreamsSSE(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	ts, _ := newTestServer(t, Config{})

	resp := postJSON(t, ts.URL+"/v1/sessions", `{"user":"bob"}`)
	var created struct {
		SessionID string `json:"session_id"`
	}
	decodeBody(t, resp, &created)

	resp = postJSON(t, ts.URL+"/v1/sessions/"+created.SessionID+"/messages?stream=sse",
		`{"message":"Which table holds radiocarbon dates?"}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streamed send = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	events := string(body)
	if !strings.Contains(events, "event: accepted\n") {
		t.Error("stream missing the accepted event")
	}
	if !strings.Contains(events, "event: reply\n") {
		t.Errorf("stream missing the reply event:\n%s", events)
	}
	if strings.Contains(events, "event: error\n") {
		t.Errorf("stream carried an error event:\n%s", events)
	}
}

// TestSearchRoutes exercises /v1/search: a plain query answers 200 with
// documents; an explicitly requested unconfigured source degrades (200 +
// marker, not an error); parameter abuse answers 400.
func TestSearchRoutes(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	ts, _ := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/v1/search?q=soil+samples+potassium&k=3")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search = %d, want 200", resp.StatusCode)
	}
	if resp.Header.Get("X-Pneuma-Degraded") != "" {
		t.Error("healthy search carried the degraded header")
	}
	var ok searchResponse
	decodeBody(t, resp, &ok)
	if len(ok.Documents) == 0 {
		t.Fatal("search returned no documents")
	}
	if len(ok.Documents) > 3 {
		t.Errorf("search returned %d documents, want at most k=3", len(ok.Documents))
	}
	if d := ok.Documents[0]; d.ID == "" || d.Title == "" || d.Summary == "" {
		t.Errorf("wire document missing fields: %+v", d)
	}
	if ok.Degraded != "" {
		t.Errorf("healthy search marked degraded: %q", ok.Degraded)
	}

	// The server has no web engine: naming web explicitly degrades the
	// query — partial results with the marker, status still 200.
	resp, err = http.Get(ts.URL + "/v1/search?q=soil+samples&sources=tables,web")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded search = %d, want 200", resp.StatusCode)
	}
	if resp.Header.Get("X-Pneuma-Degraded") != "true" {
		t.Error("degraded search missing the X-Pneuma-Degraded header")
	}
	var deg searchResponse
	decodeBody(t, resp, &deg)
	if deg.Degraded == "" {
		t.Error("degraded search body missing the degraded detail")
	}
	if len(deg.Documents) == 0 {
		t.Error("degraded search lost the surviving source's documents")
	}

	for _, bad := range []string{
		"/v1/search?q=",               // empty query
		"/v1/search?q=x&k=zero",       // unparseable k
		"/v1/search?q=x&k=-1",         // non-positive k
		"/v1/search?q=x&timeout=b",    // unparseable timeout
		"/v1/search?q=x&sources=mars", // unknown source
	} {
		resp, err := http.Get(ts.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		var errBody errorBody
		code := resp.StatusCode
		decodeBody(t, resp, &errBody)
		if code != http.StatusBadRequest || errBody.Code != "bad query" {
			t.Errorf("GET %s = %d code %q, want 400 %q", bad, code, errBody.Code, "bad query")
		}
	}
}

// TestSearchHugeK: ?k= accepts any positive int, and a k past the corpus
// size answers 200 with every table instead of sizing buffers by k.
func TestSearchHugeK(t *testing.T) {
	ts, svc := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/search?q=soil&k=2305843009213693952")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search with k=2^61 = %d, want 200", resp.StatusCode)
	}
	var got searchResponse
	decodeBody(t, resp, &got)
	if want := svc.Stats().Tables.Documents; len(got.Documents) != want {
		t.Errorf("search with k=2^61 returned %d documents, want all %d tables", len(got.Documents), want)
	}
}

// TestTimeoutClamp: a microscopic ?timeout makes the server-side deadline
// fire, which must surface as 504 (the server gave up), not 499 (the
// client did).
func TestTimeoutClamp(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	ts, _ := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/v1/search?q=soil&timeout=1ns")
	if err != nil {
		t.Fatal(err)
	}
	var errBody errorBody
	code := resp.StatusCode
	decodeBody(t, resp, &errBody)
	if code != http.StatusGatewayTimeout {
		t.Errorf("1ns-deadline search = %d, want 504", code)
	}
	if errBody.Code != "canceled" {
		t.Errorf("deadline error code = %q, want canceled", errBody.Code)
	}
}

// TestTableMutationRoutes round-trips a table over the wire: POST a CSV,
// find its rows via search, DELETE it, and watch the delete count.
func TestTableMutationRoutes(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	ts, _ := newTestServer(t, Config{})

	csv := "city,population\nzurich,430000\ngeneva,200000\n"
	resp := postJSON(t, ts.URL+"/v1/tables",
		fmt.Sprintf(`[{"name":"cities","csv":%q}]`, csv))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add tables = %d, want 200", resp.StatusCode)
	}
	var added struct {
		Added int `json:"added"`
	}
	decodeBody(t, resp, &added)
	if added.Added != 1 {
		t.Fatalf("added = %d, want 1", added.Added)
	}

	found := false
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !found {
		resp, err := http.Get(ts.URL + "/v1/search?q=zurich+population&k=10")
		if err != nil {
			t.Fatal(err)
		}
		var sr searchResponse
		decodeBody(t, resp, &sr)
		for _, d := range sr.Documents {
			if strings.Contains(d.Title, "cities") || strings.Contains(d.Summary, "zurich") {
				found = true
			}
		}
		if !found {
			time.Sleep(50 * time.Millisecond)
		}
	}
	if !found {
		t.Fatal("POSTed table never became searchable")
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/tables",
		strings.NewReader(`{"names":["cities","never-existed"]}`))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var deleted struct {
		Deleted int `json:"deleted"`
	}
	decodeBody(t, resp, &deleted)
	if deleted.Deleted != 1 {
		t.Errorf("deleted = %d, want 1 (only the real table)", deleted.Deleted)
	}

	resp = postJSON(t, ts.URL+"/v1/tables", `[]`)
	code := resp.StatusCode
	resp.Body.Close()
	if code != http.StatusBadRequest {
		t.Errorf("empty add-tables = %d, want 400", code)
	}
}

// TestOperationalEndpoints: /healthz and /readyz answer 200 while serving,
// and /metrics renders the Prometheus exposition with the request counters
// this very test drove plus the scheduler and substrate gauges.
func TestOperationalEndpoints(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	ts, _ := newTestServer(t, Config{})

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}

	// Drive one success and one client error so both counters exist.
	if resp, err := http.Get(ts.URL + "/v1/search?q=soil&k=2"); err == nil {
		resp.Body.Close()
	}
	if resp, err := http.Get(ts.URL + "/v1/search?q="); err == nil {
		resp.Body.Close()
	}

	// The request counters are bumped after a response is written, so the
	// client can read /metrics before they land: poll briefly until both
	// searches are recorded (counters and histogram update under one lock).
	var exposition string
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		exposition = getMetrics(t, ts.URL)
		if strings.Contains(exposition, `pneuma_http_request_duration_seconds_count{route="search"} 2`) ||
			time.Now().After(deadline) {
			break
		}
	}
	for _, want := range []string{
		`pneuma_http_requests_total{route="search",code="200"} 1`,
		`pneuma_http_requests_total{route="search",code="400"} 1`,
		`pneuma_http_request_duration_seconds_count{route="search"} 2`,
		"pneuma_sched_accepted_total 1",
		"pneuma_sched_completed_total 1",
		"pneuma_sched_queue_depth 0",
		"pneuma_sched_in_flight 0",
		"pneuma_http_shed_total 0",
		"pneuma_retriever_documents",
		"pneuma_llm_calls_total",
		`pneuma_llm_tokens_total{direction="in"}`,
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// getMetrics fetches the /metrics exposition, checking its status and
// content type.
func getMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics Content-Type = %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestBadBodies: malformed JSON on every POST route answers 400 with the
// typed bad-query code, never a 500.
func TestBadBodies(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	ts, _ := newTestServer(t, Config{})

	for _, route := range []string{"/v1/sessions", "/v1/tables"} {
		resp := postJSON(t, ts.URL+route, "{not json")
		var errBody errorBody
		code := resp.StatusCode
		decodeBody(t, resp, &errBody)
		if code != http.StatusBadRequest || errBody.Code != "bad query" {
			t.Errorf("POST %s with garbage = %d code %q, want 400 bad query", route, code, errBody.Code)
		}
	}
	resp := postJSON(t, ts.URL+"/v1/sessions", `{"user":"  "}`)
	code := resp.StatusCode
	resp.Body.Close()
	if code != http.StatusBadRequest {
		t.Errorf("blank user = %d, want 400", code)
	}
}
