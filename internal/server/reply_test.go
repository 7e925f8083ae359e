package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"testing"
	"time"

	"pneuma"
	"pneuma/internal/docs"
	"pneuma/internal/racebuild"
	"pneuma/internal/table"
	"pneuma/internal/value"
)

// wireDoc, toWireDocs and searchResponse are the search reply as the server
// built it before appendSearchReply — a projection of each document handed
// to encoding/json — kept verbatim as the reference FuzzSearchReply holds the
// encoder to, and as the shape the route tests decode.
type wireDoc struct {
	ID      string  `json:"id"`
	Kind    string  `json:"kind"`
	Title   string  `json:"title"`
	Source  string  `json:"source"`
	Score   float64 `json:"score"`
	Summary string  `json:"summary"`
}

func toWireDocs(ds []pneuma.Document) []wireDoc {
	out := make([]wireDoc, len(ds))
	for i := range ds {
		d := &ds[i]
		out[i] = wireDoc{
			ID:      d.ID,
			Kind:    string(d.Kind),
			Title:   d.Title,
			Source:  d.Source,
			Score:   d.Score,
			Summary: d.Summary(2),
		}
	}
	return out
}

type searchResponse struct {
	Documents []wireDoc `json:"documents"`
	Degraded  string    `json:"degraded,omitempty"`
}

// fuzzDocs builds one document per byte of kinds (at most eight): 't' a table
// document, 'w' a web page, anything else a knowledge note. Their titles,
// contents, cells and scores come from the other arguments.
func fuzzDocs(kinds, title, content string, score float64) []pneuma.Document {
	ds := []pneuma.Document{}
	for i := 0; i < len(kinds) && i < 8; i++ {
		d := pneuma.Document{
			ID:     fmt.Sprintf("%c%d:%s", kinds[i], i, title),
			Title:  title,
			Source: "fuzz",
			Score:  score / float64(i+1),
		}
		switch kinds[i] {
		case 't':
			d.Kind = docs.KindTable
			d.Table = fuzzTable(title, content, score)
		case 'w':
			d.Kind = docs.KindWeb
			d.Content = content
		default:
			d.Kind = docs.KindKnowledge
			d.Content = title + "\n" + content
		}
		ds = append(ds, d)
	}
	return ds
}

// fuzzTable is a table named and described by the fuzz strings, with one
// row per line of content (at most four) holding the line, its number, a
// float from score and a time that is midnight on every other row.
func fuzzTable(title, content string, score float64) *table.Table {
	tb := table.New(table.Schema{Name: title, Columns: []table.Column{
		{Name: title, Type: value.KindString, Description: content, Unit: title},
		{Name: "n", Type: value.KindInt, Description: "line number"},
		{Name: "x", Type: value.KindFloat},
		{Name: "at", Type: value.KindTime, Description: content},
	}})
	for i, line := range strings.SplitN(content, "\n", 4) {
		tb.MustAppend(table.Row{
			value.String(line),
			value.Int(int64(i)),
			value.Float(score * float64(i)),
			value.Time(time.Unix(int64(i)*12*3600, 0).UTC()),
		})
	}
	return tb
}

// FuzzSearchReply holds the search reply encoder to encoding/json over the
// reference projection, byte for byte. The committed corpus covers HTML
// specials, U+2028/U+2029, control bytes, invalid UTF-8, a page cut inside a
// rune at the summary's 600-byte limit, table cells cut inside a rune, scores
// of 1e-7, 1e21, -0 and a subnormal, the degraded field and zero documents.
func FuzzSearchReply(f *testing.F) {
	f.Add("tkw", "soil <samples> & sites", "k_ppm °C\nMalta Gozo", 0.016129032258064516, "")
	f.Fuzz(func(t *testing.T, kinds, title, content string, score float64, degraded string) {
		ds := fuzzDocs(kinds, title, content, score)
		var want bytes.Buffer
		_ = json.NewEncoder(&want).Encode(searchResponse{Documents: toWireDocs(ds), Degraded: degraded})

		b := replyBuf{out: []byte("stale"), summary: []byte("stale")}
		var got []byte
		if b.appendSearchReply(ds, degraded) {
			got = b.out
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("reply differs from encoding/json:\n got %q\nwant %q", got, want.Bytes())
		}
	})
}

// TestSearchHandlerAllocs pins the allocations of one steady-state GET
// /v1/search?k=10&sources=tables on a 200-table Service, every query
// distinct so each one misses the IR cache: the request the search
// benchmarks send, recorded the way they record it. It measured 139; the
// reply built through a []wireDoc projection and encoding/json, with the
// query string parsed once per reader, took 795 on the same requests.
func TestSearchHandlerAllocs(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	corpus := pneuma.SyntheticDataset(200)
	svc, err := pneuma.New(corpus)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	srv, err := New(Config{Service: svc})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(corpus))
	for name := range corpus {
		names = append(names, name)
	}
	sort.Strings(names)

	const warm, runs = 50, 200
	reqs := make([]*http.Request, warm+runs+1) // AllocsPerRun makes one call of its own first
	for i := range reqs {
		q := strings.ReplaceAll(names[i%len(names)], "_", " ") + fmt.Sprintf(" records %d", i)
		reqs[i] = httptest.NewRequest(http.MethodGet, "/v1/search?k=10&sources=tables&q="+url.QueryEscape(q), nil)
	}
	h := srv.Handler()
	var body bytes.Buffer
	next := 0
	serve := func() {
		body.Reset()
		rec := &httptest.ResponseRecorder{HeaderMap: make(http.Header), Body: &body, Code: http.StatusOK}
		h.ServeHTTP(rec, reqs[next])
		next++
		if rec.Code != http.StatusOK {
			t.Fatalf("search = %d: %s", rec.Code, body.String())
		}
	}
	for range warm {
		serve()
	}
	const budget = 167
	if got := testing.AllocsPerRun(runs, serve); got > budget {
		t.Errorf("steady-state search request allocates %.1f times, budget is %d", got, budget)
	}
}

// fill is an endless reader of one byte.
type fill byte

func (b fill) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// TestOversizeBodyRejected: a JSON body longer than maxBodyBytes answers 400
// with the typed bad-query code on every route that reads one, and the
// handler stops reading at the limit.
func TestOversizeBodyRejected(t *testing.T) {
	svc, err := pneuma.New(pneuma.ArchaeologyDataset())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	srv, err := New(Config{Service: svc})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions", strings.NewReader(`{"user":"big"}`)))
	var created struct {
		SessionID string `json:"session_id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil || created.SessionID == "" {
		t.Fatalf("create session = %d %s", rec.Code, rec.Body.String())
	}

	for _, c := range []struct{ method, path, prefix string }{
		{http.MethodPost, "/v1/sessions", `{"user":"`},
		{http.MethodPost, "/v1/sessions/" + created.SessionID + "/messages", `{"message":"`},
		{http.MethodPost, "/v1/tables", `[{"name":"big","csv":"`},
		{http.MethodDelete, "/v1/tables", `{"names":["`},
	} {
		body := &countingReader{r: io.MultiReader(strings.NewReader(c.prefix), io.LimitReader(fill('a'), 2*maxBodyBytes), strings.NewReader(`"}`))}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, body))
		var errBody errorBody
		_ = json.Unmarshal(rec.Body.Bytes(), &errBody)
		if rec.Code != http.StatusBadRequest || errBody.Code != "bad query" || !strings.Contains(errBody.Error, "exceeds") {
			t.Errorf("%s %s with an oversize body = %d %+v, want 400 bad query", c.method, c.path, rec.Code, errBody)
		}
		if body.n > maxBodyBytes+64<<10 {
			t.Errorf("%s %s read %d body bytes past a %d-byte limit", c.method, c.path, body.n, maxBodyBytes)
		}
	}
}

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestStalledHeadersDropped: the server Run builds gives a connection
// readHeaderTimeout to deliver its request headers and then drops it, so a
// client that opens connections and stalls cannot hold them open. The
// timeout is shortened here so the test does not wait ten seconds.
func TestStalledHeadersDropped(t *testing.T) {
	svc, err := pneuma.New(pneuma.ArchaeologyDataset())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	srv, err := New(Config{Service: svc})
	if err != nil {
		t.Fatal(err)
	}
	hs := srv.httpServer()
	if hs.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want readHeaderTimeout (%v)", hs.ReadHeaderTimeout, readHeaderTimeout)
	}
	hs.ReadHeaderTimeout = 100 * time.Millisecond
	ts := httptest.NewUnstartedServer(nil)
	ts.Config = hs
	ts.Start()
	t.Cleanup(ts.Close)

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: pneuma\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(10 * time.Second))
	n, err := conn.Read(make([]byte, 512))
	if err != io.EOF || n != 0 {
		t.Fatalf("stalled connection read %d bytes, %v; want the server to close it", n, err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("server took %v to drop a connection stalled in its headers", waited)
	}
}
