package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pneuma"
	"pneuma/internal/pnerr"
)

// Config assembles a Server over an existing Service. Zero values select
// the defaults noted on each field; Service is the only required field.
type Config struct {
	// Service is the serving facade the HTTP layer fronts. Required.
	Service *pneuma.Service
	// DefaultTimeout is the per-request deadline applied when the request
	// carries no ?timeout parameter (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-requested ?timeout values so one client
	// cannot hold a scheduler slot arbitrarily long (default 2m).
	MaxTimeout time.Duration
	// DrainTimeout bounds how long Run waits for in-flight requests after
	// its context is canceled before forcing shutdown (default 10s).
	DrainTimeout time.Duration
	// DrainLinger keeps the listener answering (with 503s) for at least
	// this long after the drain begins, even once idle, so load balancers
	// polling /readyz observe the not-ready state before the socket
	// disappears (default 0: shut down as soon as in-flight work ends).
	DrainLinger time.Duration
	// MaxEstimatedWait sheds requests with 503 before they enqueue when
	// the scheduler's projected queue wait exceeds it (default 0:
	// disabled; the scheduler's own WithMaxQueue depth bound still
	// applies).
	MaxEstimatedWait time.Duration
}

// Server is the HTTP front end: a handler tree over one pneuma.Service
// plus the drain state machine Run drives. Create with New, serve with
// Run (or mount Handler on an existing http.Server for tests).
type Server struct {
	svc      *pneuma.Service
	cfg      Config
	mux      *http.ServeMux
	met      *metrics
	draining atomic.Bool
	inflight sync.WaitGroup

	sessions sync.Map // session id → *pneuma.ServiceSession
	nextID   atomic.Uint64
}

// New validates the config, fills defaults and builds the route tree.
func New(cfg Config) (*Server, error) {
	if cfg.Service == nil {
		return nil, errors.New("server: Config.Service is required")
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 2 * time.Minute
	}
	if cfg.DefaultTimeout > cfg.MaxTimeout {
		cfg.DefaultTimeout = cfg.MaxTimeout
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	s := &Server{svc: cfg.Service, cfg: cfg, mux: http.NewServeMux(), met: newMetrics()}
	s.routes()
	return s, nil
}

// routes mounts the handler tree. API routes go through the api wrapper
// (drain rejection, shedding, deadline, metrics); operational routes stay
// reachable while draining.
func (s *Server) routes() {
	s.mux.Handle("POST /v1/sessions", s.api("create_session", s.handleCreateSession))
	s.mux.Handle("DELETE /v1/sessions/{id}", s.api("close_session", s.handleCloseSession))
	s.mux.Handle("POST /v1/sessions/{id}/messages", s.api("send", s.handleSend))
	s.mux.Handle("GET /v1/search", s.api("search", s.handleSearch))
	s.mux.Handle("POST /v1/tables", s.api("add_tables", s.handleAddTables))
	s.mux.Handle("DELETE /v1/tables", s.api("delete_tables", s.handleDeleteTables))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
}

// Handler exposes the route tree for mounting on any http.Server
// (httptest in the package's own tests, the daemon's server in Run).
func (s *Server) Handler() http.Handler { return s.mux }

// statusRecorder captures the final status for the request counter while
// passing Flush through, which SSE streaming needs.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// apiHandler is one API route: the request, its query string parsed once by
// api, and the typed error api renders when the handler fails.
type apiHandler func(w http.ResponseWriter, r *http.Request, query url.Values) error

// api wraps one API handler with the serving policy: reject while
// draining, shed on projected queue wait, attach the per-request deadline,
// track in-flight work for the drain, and record the request metrics.
func (s *Server) api(route string, h apiHandler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			s.met.observe(route, rec.status, time.Since(start).Seconds())
		}()

		if s.draining.Load() {
			s.writeError(rec, pnerr.Closed("server: draining"))
			return
		}
		s.inflight.Add(1)
		defer s.inflight.Done()

		if max := s.cfg.MaxEstimatedWait; max > 0 {
			if wait := s.svc.SchedulerStats().EstimatedWait(); wait > max {
				s.met.observeShed()
				s.writeError(rec, pnerr.Overloaded("server: estimated wait "+wait.String()))
				return
			}
		}

		query := r.URL.Query()
		ctx, cancel, err := s.reqContext(r, query)
		if err != nil {
			s.writeError(rec, err)
			return
		}
		defer cancel()

		if err := h(rec, r.WithContext(ctx), query); err != nil {
			s.writeError(rec, err)
		}
	})
}

// reqContext derives the request's context: the ?timeout parameter
// (clamped by MaxTimeout, defaulting to DefaultTimeout) layered on the
// client connection's own lifetime, so both the server's bound and the
// client hanging up cancel the work.
func (s *Server) reqContext(r *http.Request, query url.Values) (context.Context, context.CancelFunc, error) {
	d := s.cfg.DefaultTimeout
	if raw := query.Get("timeout"); raw != "" {
		parsed, err := time.ParseDuration(raw)
		if err != nil || parsed <= 0 {
			return nil, nil, pnerr.BadQueryf("server: request", "invalid timeout %q", raw)
		}
		d = min(parsed, s.cfg.MaxTimeout)
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// errorBody is the JSON error envelope of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// retryAfter is the Retry-After hint, in seconds, stamped on every 503.
const retryAfter = "1"

// writeError renders err through the status mapping: JSON envelope, typed
// code, Retry-After on the 503 family.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := Status(err)
	w.Header().Set("Content-Type", "application/json")
	if Retryable(err) {
		w.Header().Set("Retry-After", retryAfter)
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: err.Error(), Code: string(pnerr.CodeOf(err))})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// maxBodyBytes bounds the JSON body of a request. A table added over the
// wire travels as CSV inside it, so this is also the largest upload.
const maxBodyBytes = 8 << 20

// decodeJSON decodes the request body into v, reading at most maxBodyBytes;
// a longer, or malformed, body is a typed bad query for op.
func decodeJSON(w http.ResponseWriter, r *http.Request, op string, v any) error {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return pnerr.BadQueryf(op, "request body exceeds %d bytes", tooLarge.Limit)
	case err != nil:
		return pnerr.BadQueryf(op, "invalid JSON body: %v", err)
	}
	return nil
}

// handleCreateSession starts a conversation: {"user": "alice"} → 201 with
// the session id the other session routes address.
func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request, _ url.Values) error {
	var req struct {
		User string `json:"user"`
	}
	if err := decodeJSON(w, r, "server: create session", &req); err != nil {
		return err
	}
	if strings.TrimSpace(req.User) == "" {
		return pnerr.BadQueryf("server: create session", "user is required")
	}
	id := fmt.Sprintf("s-%d", s.nextID.Add(1))
	s.sessions.Store(id, s.svc.NewSession(req.User))
	writeJSON(w, http.StatusCreated, map[string]string{"session_id": id, "user": req.User})
	return nil
}

// handleCloseSession forgets a session's server-side state. The Service
// holds no per-session resources beyond the conversation state, so this
// is pure bookkeeping — but without it a long-lived daemon would leak one
// conversation per client forever.
func (s *Server) handleCloseSession(w http.ResponseWriter, r *http.Request, _ url.Values) error {
	id := r.PathValue("id")
	if _, ok := s.sessions.LoadAndDelete(id); !ok {
		return pnerr.BadQueryf("server: close session", "unknown session %q", id)
	}
	w.WriteHeader(http.StatusNoContent)
	return nil
}

// session resolves a session route's {id}.
func (s *Server) session(r *http.Request) (*pneuma.ServiceSession, error) {
	id := r.PathValue("id")
	v, ok := s.sessions.Load(id)
	if !ok {
		return nil, pnerr.BadQueryf("server: session", "unknown session %q", id)
	}
	return v.(*pneuma.ServiceSession), nil
}

// sendResponse is the JSON envelope of one completed turn.
type sendResponse struct {
	Reply    pneuma.Reply `json:"reply"`
	Degraded string       `json:"degraded,omitempty"`
}

// handleSend delivers one user message: {"message": "..."} → the turn's
// Reply. With ?stream=sse (or Accept: text/event-stream) the turn streams
// as server-sent events — accepted on admission, working heartbeats while
// the Seeker runs, then one reply or error event — so long turns deliver
// progress incrementally instead of a silent multi-second hang.
func (s *Server) handleSend(w http.ResponseWriter, r *http.Request, query url.Values) error {
	sess, err := s.session(r)
	if err != nil {
		return err
	}
	var req struct {
		Message string `json:"message"`
	}
	if err := decodeJSON(w, r, "server: send", &req); err != nil {
		return err
	}
	if strings.TrimSpace(req.Message) == "" {
		return pnerr.BadQueryf("server: send", "message is required")
	}
	if wantsSSE(r, query) {
		return s.streamSend(w, r, sess, req.Message)
	}
	reply, err := sess.Send(r.Context(), req.Message)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, sendResponse{Reply: reply})
	return nil
}

func wantsSSE(r *http.Request, query url.Values) bool {
	return query.Get("stream") == "sse" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// sseHeartbeat paces the working events of a streamed turn.
const sseHeartbeat = 500 * time.Millisecond

// streamSend runs the turn concurrently with an SSE event stream. Errors
// after the 200 header travel in-band as an error event carrying the same
// status code the JSON path would have used.
func (s *Server) streamSend(w http.ResponseWriter, r *http.Request, sess *pneuma.ServiceSession, msg string) error {
	flusher, ok := w.(http.Flusher)
	if !ok {
		return pnerr.BadQueryf("server: send", "connection does not support streaming")
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	writeEvent(w, "accepted", map[string]any{"queue_depth": s.svc.SchedulerStats().QueueDepth})
	flusher.Flush()

	type outcome struct {
		reply pneuma.Reply
		err   error
	}
	done := make(chan outcome, 1)
	go func() {
		reply, err := sess.Send(r.Context(), msg)
		done <- outcome{reply, err}
	}()

	ticker := time.NewTicker(sseHeartbeat)
	defer ticker.Stop()
	start := time.Now()
	for {
		select {
		case out := <-done:
			if out.err != nil {
				writeEvent(w, "error", errorEvent(out.err))
			} else {
				writeEvent(w, "reply", sendResponse{Reply: out.reply})
			}
			flusher.Flush()
			return nil
		case <-ticker.C:
			writeEvent(w, "working", map[string]any{
				"elapsed_ms": time.Since(start).Milliseconds(),
				"in_flight":  s.svc.SchedulerStats().InFlight,
			})
			flusher.Flush()
		}
	}
}

// errorEvent is the in-band SSE rendering of a failed turn: the JSON
// error envelope plus the status the non-streamed path would have sent.
func errorEvent(err error) map[string]any {
	return map[string]any{
		"error":  err.Error(),
		"code":   string(pnerr.CodeOf(err)),
		"status": Status(err),
	}
}

// writeEvent emits one SSE event with a JSON data payload.
func writeEvent(w http.ResponseWriter, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(`{}`)
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}

// handleSearch runs one retrieval: ?q= (required), &k= (default 5),
// &sources=tables,knowledge,web (default all). A partially failed query
// returns 200 with the surviving fusion and the degraded marker: the
// X-Pneuma-Degraded header flags it without parsing the body, whose
// "degraded" field carries the per-source failure detail. Each document goes
// over the wire as its identity, score and rendered summary, never the raw
// table payload, which can be arbitrarily large.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request, query url.Values) error {
	q := query.Get("q")
	k := 5
	if raw := query.Get("k"); raw != "" {
		parsed, err := strconv.Atoi(raw)
		if err != nil || parsed <= 0 {
			return pnerr.BadQueryf("server: search", "invalid k %q", raw)
		}
		k = parsed
	}
	var sources []string
	if raw := query.Get("sources"); raw != "" {
		sources = strings.Split(raw, ",")
	}
	docs, err := s.svc.SearchIn(r.Context(), q, k, sources...)
	if err != nil && !errors.Is(err, pnerr.ErrDegraded) {
		return err
	}
	var degraded string
	if err != nil {
		degraded = err.Error()
		w.Header().Set("X-Pneuma-Degraded", "true")
	}
	writeSearchReply(w, docs, degraded)
	return nil
}

// wireTable is one table shipped over the wire as CSV — the same format
// the loaders speak (header row first, types inferred), so a curl of a
// .csv file body indexes directly.
type wireTable struct {
	Name string `json:"name"`
	CSV  string `json:"csv"`
}

// handleAddTables streams new tables into the live index: a JSON array of
// {"name","csv"} objects. Searches keep serving while the ingest runs;
// the new tables become visible as the shard writers publish.
func (s *Server) handleAddTables(w http.ResponseWriter, r *http.Request, _ url.Values) error {
	var req []wireTable
	if err := decodeJSON(w, r, "server: add tables", &req); err != nil {
		return err
	}
	if len(req) == 0 {
		return pnerr.BadQueryf("server: add tables", "no tables in request")
	}
	tables := make([]*pneuma.Table, len(req))
	for i, wt := range req {
		if strings.TrimSpace(wt.Name) == "" {
			return pnerr.BadQueryf("server: add tables", "table %d has no name", i)
		}
		t, err := pneuma.ReadCSV(wt.Name, strings.NewReader(wt.CSV))
		if err != nil {
			return pnerr.BadQueryf("server: add tables", "table %q: %v", wt.Name, err)
		}
		tables[i] = t
	}
	if err := s.svc.AddTables(r.Context(), tables...); err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, map[string]int{"added": len(tables)})
	return nil
}

// handleDeleteTables removes tables by name: {"names": [...]} → how many
// were present. In-flight queries may still surface a just-deleted table
// from their pinned views; queries admitted afterwards do not.
func (s *Server) handleDeleteTables(w http.ResponseWriter, r *http.Request, _ url.Values) error {
	var req struct {
		Names []string `json:"names"`
	}
	if err := decodeJSON(w, r, "server: delete tables", &req); err != nil {
		return err
	}
	if len(req.Names) == 0 {
		return pnerr.BadQueryf("server: delete tables", "no names in request")
	}
	n, err := s.svc.DeleteTables(r.Context(), req.Names...)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, map[string]int{"deleted": n})
	return nil
}

// handleHealthz is liveness: 200 for as long as the process can answer,
// including the whole drain.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: 200 while admitting, 503 once draining so
// load balancers stop routing here before the listener disappears.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleMetrics renders the Prometheus exposition from one Stats
// snapshot. It stays reachable while draining — the final scrape is the
// one that shows the drain.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.render(w, s.svc.Stats())
}

// Connection timeouts, so a client that opens a connection and stalls
// cannot hold it open indefinitely.
const (
	// readHeaderTimeout bounds the delivery of the request headers.
	readHeaderTimeout = 10 * time.Second
	// readTimeout bounds the delivery of the whole request, body included.
	// It does not cut a long response short: once the handler has read
	// the body, net/http clears the read deadline, so an SSE turn may
	// stream for as long as its own deadline allows.
	readTimeout = 30 * time.Second
	// idleTimeout bounds how long a keep-alive connection may wait for its
	// next request.
	idleTimeout = 2 * time.Minute
)

// httpServer is the http.Server Run serves the handler tree with.
func (s *Server) httpServer() *http.Server {
	return &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// Run serves on the listener until ctx is canceled (the daemon wires
// SIGTERM/SIGINT to it), then executes the graceful drain: flip to
// draining (new API requests 503, /readyz 503), wait out in-flight
// requests up to DrainTimeout (plus DrainLinger for load balancers), shut
// the HTTP server down, and finally Close the Service so disk-backed
// indexes flush. The returned error joins the serve, shutdown and close
// failures; a clean drain returns nil.
func (s *Server) Run(ctx context.Context, ln net.Listener) error {
	hs := s.httpServer()
	serveErr := make(chan error, 1)
	go func() {
		err := hs.Serve(ln)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		serveErr <- err
	}()

	select {
	case err := <-serveErr:
		// The listener failed on its own; release the index and report.
		return errors.Join(err, s.svc.Close())
	case <-ctx.Done():
	}

	drainStart := time.Now()
	s.draining.Store(true)
	drained := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(s.cfg.DrainTimeout):
	}
	if linger := s.cfg.DrainLinger - time.Since(drainStart); linger > 0 {
		time.Sleep(linger)
	}

	sctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	shutdownErr := hs.Shutdown(sctx)
	return errors.Join(shutdownErr, s.svc.Close(), <-serveErr)
}
