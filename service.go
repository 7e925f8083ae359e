package pneuma

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pneuma/internal/core"
	"pneuma/internal/docdb"
	"pneuma/internal/ir"
	"pneuma/internal/llm"
	"pneuma/internal/pnerr"
	"pneuma/internal/table"
)

// Service is the concurrency-safe serving facade over one shared Seeker:
// many user sessions are admitted through a bounded request scheduler, so
// a burst of traffic queues instead of fanning out without limit, and a
// slow or abandoned request can be canceled through its context without
// blocking anyone else's.
//
// Scheduling: every request (Send or Search, across all sessions)
// acquires one of MaxConcurrent slots before touching the shared index.
// Waiters whose context is canceled leave the queue immediately — there
// is no head-of-line blocking: a stuck request occupies only its own
// slot, never the admission queue.
//
// Accounting: the Service-wide meter keeps global totals while every
// session records its own calls on its session meter, so Table-2-style
// accounting stays attributable per session under concurrency (session
// usages sum to the service total).
type Service struct {
	seeker *core.Seeker
	sem    chan struct{}
	// maxQueue bounds how many requests may wait for a slot at once
	// (WithMaxQueue); 0 means the queue is unbounded, the pre-shedding
	// behavior.
	maxQueue int
	sched    schedCounters

	mu     sync.Mutex
	wg     sync.WaitGroup
	closed bool
	// closeDone is closed (and closeErr set) once the first Close has
	// fully drained and released the index; later Close calls wait on it
	// so "Close returned" always means "the index is flushed".
	closeDone chan struct{}
	closeErr  error
}

// New assembles a Service over a table corpus with the unified
// functional-options API:
//
//	svc, err := pneuma.New(corpus,
//	    pneuma.WithShards(8),
//	    pneuma.WithBackend(pneuma.BackendDisk),
//	    pneuma.WithIndexDir("./idx"),
//	    pneuma.WithMaxConcurrent(64),
//	)
//
// Index construction runs under a background context; use NewContext to
// make assembly cancellable, and the returned Service's Close to flush
// and release disk-backed indexes.
func New(corpus map[string]*Table, opts ...Option) (*Service, error) {
	return NewContext(context.Background(), corpus, opts...)
}

// NewContext is New with a caller-supplied context governing corpus
// ingest: canceling it abandons index construction (the embedding worker
// pool and the per-shard writers stop at the next document) and returns a
// typed ErrCanceled.
func NewContext(ctx context.Context, corpus map[string]*Table, opts ...Option) (*Service, error) {
	var s settings
	for _, o := range opts {
		o(&s)
	}
	if s.kb == nil {
		s.kb = docdb.New()
	}
	if s.maxConcurrent <= 0 {
		s.maxConcurrent = DefaultMaxConcurrent()
	}
	seeker, err := core.New(ctx, s.cfg, corpus, s.web, s.kb)
	if err != nil {
		return nil, err
	}
	return &Service{
		seeker:   seeker,
		sem:      make(chan struct{}, s.maxConcurrent),
		maxQueue: s.maxQueue,
	}, nil
}

// schedCounters instruments the request scheduler: two gauges (queue
// depth, in-flight), outcome counters and two cumulative durations, all
// atomics so the hot path never takes a lock to account for itself.
// Stats() assembles them into the typed SchedulerStats snapshot the
// metrics endpoint and the load shedder read.
type schedCounters struct {
	queued    atomic.Int64  // requests waiting for a slot right now
	inFlight  atomic.Int64  // requests holding a slot right now
	accepted  atomic.Uint64 // requests admitted to a slot
	rejected  atomic.Uint64 // requests shed by the queue bound
	canceled  atomic.Uint64 // requests whose ctx fired before admission
	completed atomic.Uint64 // admitted requests that released their slot
	waitNanos atomic.Int64  // total time accepted requests spent queued
	busyNanos atomic.Int64  // total time admitted requests held a slot
}

// acquire admits one request and returns the release that gives its slot
// back: it rejects closed services, sheds with a typed ErrOverloaded when
// the wait queue is at its bound, honors cancellation while queueing, and
// counts the request for Close's drain and for Stats.
func (s *Service) acquire(ctx context.Context, op string) (release func(), err error) {
	if err := ctx.Err(); err != nil {
		s.sched.canceled.Add(1)
		return nil, pnerr.Canceled(op, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, pnerr.Closed(op)
	}
	s.wg.Add(1)
	s.mu.Unlock()
	// Fast path: a free slot admits without ever counting as queued.
	select {
	case s.sem <- struct{}{}:
		return s.admit(0), nil
	default:
	}
	// No free slot: the request queues. The depth bound is enforced on
	// the post-increment value, so at most maxQueue requests ever wait.
	if n := s.sched.queued.Add(1); s.maxQueue > 0 && n > int64(s.maxQueue) {
		s.sched.queued.Add(-1)
		s.sched.rejected.Add(1)
		s.wg.Done()
		return nil, pnerr.Overloaded(op)
	}
	start := time.Now()
	select {
	case s.sem <- struct{}{}:
		s.sched.queued.Add(-1)
		return s.admit(time.Since(start)), nil
	case <-ctx.Done():
		s.sched.queued.Add(-1)
		s.sched.canceled.Add(1)
		s.wg.Done()
		return nil, pnerr.Canceled(op, ctx.Err())
	}
}

// admit records one admission and returns the paired release: the gauge
// flips from queued to in-flight, and the slot-holding time accumulates
// into busyNanos so EstimatedWait can project the backlog.
func (s *Service) admit(waited time.Duration) func() {
	s.sched.accepted.Add(1)
	s.sched.waitNanos.Add(int64(waited))
	s.sched.inFlight.Add(1)
	start := time.Now()
	return func() {
		s.sched.busyNanos.Add(int64(time.Since(start)))
		s.sched.inFlight.Add(-1)
		s.sched.completed.Add(1)
		<-s.sem
		s.wg.Done()
	}
}

// NewSession starts a conversation for the named user. Sessions are
// independent: each is single-caller (one conversation, one author), but
// any number of them may Send concurrently — the scheduler serializes
// admission, and everything sessions share is concurrency-safe.
func (s *Service) NewSession(user string) *ServiceSession {
	return &ServiceSession{svc: s, inner: s.seeker.NewSession(user)}
}

// Search runs one request-scoped retrieval against the IR System (all
// sources, RRF-fused) through the scheduler. It returns typed errors:
// ErrCanceled when ctx fires (queued or mid-fan-out), ErrBadQuery for an
// empty query, ErrClosed after Close. When only some sources fail the
// call degrades instead of losing the good results: the surviving fusion
// is returned together with a non-nil ErrDegraded-coded error wrapping
// the per-source failures — check errors.Is(err, ErrDegraded) to accept
// partial results.
func (s *Service) Search(ctx context.Context, query string, k int) ([]Document, error) {
	return s.SearchIn(ctx, query, k)
}

// SearchIn is Search restricted to the named retrieval sources ("tables",
// "knowledge", "web"); no names means all sources, exactly Search. An
// unknown name is a typed ErrBadQuery. A source that is named but not
// configured on this Service (web search disabled, say) counts as a
// failed source: the query degrades — surviving sources fuse and the
// ErrDegraded-coded error names the missing one — rather than silently
// returning less than was asked for.
func (s *Service) SearchIn(ctx context.Context, query string, k int, sources ...string) ([]Document, error) {
	const op = "service: search"
	if strings.TrimSpace(query) == "" {
		return nil, pnerr.BadQueryf(op, "empty query")
	}
	release, err := s.acquire(ctx, op)
	if err != nil {
		return nil, err
	}
	defer release()
	srcs := make([]ir.Source, len(sources))
	for i, name := range sources {
		srcs[i] = ir.Source(name)
	}
	res, err := s.seeker.IR().Query(ctx, ir.Request{Query: query, K: k, Sources: srcs})
	if err != nil {
		return nil, err
	}
	if res.Degraded != nil {
		return res.Documents, pnerr.Degraded(op, res.Degraded)
	}
	return res.Documents, nil
}

// LookupTable fetches a table by exact name from the shared index — the
// grounding path for callers that already know what they want.
func (s *Service) LookupTable(name string) (*table.Table, bool) {
	return s.seeker.IR().LookupTable(name)
}

// AddTables streams new (or replacement) tables into the live index
// through the scheduler. The call batches embeddings through the
// retriever's worker pool and writes all shards concurrently; searches
// admitted before, during and after the ingest keep serving without
// blocking — each query pins the immutable shard views current when it
// starts, and the new tables become visible batch by batch as the
// writers publish. On a disk-backed index the call returns only after
// every shard it wrote has fsynced its segment, so the tables it
// acknowledges are durable.
//
// Cancellation abandons un-started embedding and insertion work and
// returns a typed ErrCanceled; tables already inserted stay in the index
// (ingest is not transactional). Determinism: once the ingest completes
// and the index quiesces, results are identical to an index built from
// the final corpus in one shot, at any shard count and on either
// backend.
func (s *Service) AddTables(ctx context.Context, tables ...*Table) error {
	const op = "service: add tables"
	if len(tables) == 0 {
		return nil
	}
	release, err := s.acquire(ctx, op)
	if err != nil {
		return err
	}
	defer release()
	return s.seeker.IR().Tables.IndexTables(ctx, tables)
}

// DeleteTables removes tables by name from the live index through the
// scheduler, returning how many of the names were present. Like
// AddTables, the removal never blocks serving traffic: in-flight queries
// finish on their pinned views (and may still surface a just-deleted
// table); queries starting after the call returns do not. A disk-backed
// index logs one tombstone record per removed table and fsyncs each shard
// it wrote before the call returns; a failed append or sync is returned
// by the index's next Flush, or by Close. Once tombstones and replaced
// records make up half a shard's segment, a background compaction
// rewrites it to the live records.
func (s *Service) DeleteTables(ctx context.Context, names ...string) (int, error) {
	const op = "service: delete tables"
	if len(names) == 0 {
		return 0, nil
	}
	release, err := s.acquire(ctx, op)
	if err != nil {
		return 0, err
	}
	defer release()
	ids := make([]string, len(names))
	for i, name := range names {
		ids[i] = "table:" + name
	}
	return s.seeker.IR().Tables.DeleteDocuments(ids), nil
}

// Meter exposes the service-wide token/latency accounting (the sum over
// all sessions). Use Snapshot for a consistent read while sessions are
// active.
func (s *Service) Meter() *Meter { return s.seeker.Meter() }

// Knowledge exposes the shared Document Database.
func (s *Service) Knowledge() *KnowledgeDB { return s.seeker.Knowledge() }

// Seeker exposes the underlying assembled system for callers that need
// the pre-Service surface (harness adapters, tests). Direct Seeker calls
// bypass the request scheduler.
func (s *Service) Seeker() *Seeker { return s.seeker }

// MaxConcurrent reports the scheduler width.
func (s *Service) MaxConcurrent() int { return cap(s.sem) }

// Close stops admitting new requests, waits for in-flight (and
// already-queued) requests to drain, then flushes and releases the shared
// index. Subsequent requests fail with a typed ErrClosed. Close is
// idempotent and every call — including concurrent ones — blocks until
// the drain and flush have actually completed, so a returned Close always
// means the index is released.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		done := s.closeDone
		s.mu.Unlock()
		<-done
		return s.closeErr
	}
	s.closed = true
	s.closeDone = make(chan struct{})
	s.mu.Unlock()
	s.wg.Wait()
	s.closeErr = s.seeker.Close()
	close(s.closeDone)
	return s.closeErr
}

// ServiceSession is one user's conversation admitted through the Service
// scheduler. It wraps a Session: Send acquires a scheduler slot, attaches
// the session meter to the request context, and maps failures to typed
// errors.
type ServiceSession struct {
	svc   *Service
	inner *core.Session
}

// Send delivers one user message and runs the Conductor turn under the
// request's context: cancellation propagates into retrieval fan-out,
// model calls and materialization, and surfaces as a typed ErrCanceled.
// While the request waits for a scheduler slot, cancellation abandons the
// queue immediately.
func (ss *ServiceSession) Send(ctx context.Context, message string) (Reply, error) {
	release, err := ss.svc.acquire(ctx, "service: send")
	if err != nil {
		return Reply{}, err
	}
	defer release()
	return ss.inner.Send(ctx, message)
}

// Meter exposes this session's own token/latency accounting — the
// per-session slice of the service meter.
func (ss *ServiceSession) Meter() *Meter { return ss.inner.Meter() }

// Session exposes the underlying conversation state (State view,
// accumulated documents, knowledge notes). Calling Send on it directly
// bypasses the Service scheduler.
func (ss *ServiceSession) Session() *Session { return ss.inner }

// User returns the session's user name (knowledge-capture attribution).
func (ss *ServiceSession) User() string { return ss.inner.User }

// Metering types re-exported for Service/session accounting.
type (
	// Meter accumulates token usage and simulated latency; safe for
	// concurrent recording.
	Meter = llm.Meter
	// MeterSnapshot is a consistent point-in-time copy of a Meter.
	MeterSnapshot = llm.MeterSnapshot
	// Usage is one token bill (input and output tokens).
	Usage = llm.Usage
)
