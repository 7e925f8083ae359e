package core

import (
	"context"
	"strings"
	"time"

	"pneuma/internal/docdb"
	"pneuma/internal/docs"
	"pneuma/internal/ir"
	"pneuma/internal/llm"
	"pneuma/internal/pnerr"
	"pneuma/internal/retriever"
	"pneuma/internal/table"
	"pneuma/internal/websearch"
)

// Config configures a Seeker instance.
type Config struct {
	// Model is the language model; defaults to a fresh SimModel with the
	// o4-mini profile (the paper's deployment).
	Model llm.Model
	// MaxActions is the Conductor's per-turn cap (default 5).
	MaxActions int
	// WebSearch enables the web retriever (the paper disables it for
	// benchmarks).
	WebSearch bool
	// Specialized toggles context specialization (default true).
	Specialized *bool
	// DynamicPlanning selects conductor-style orchestration over the fixed
	// static pipeline (default true).
	DynamicPlanning *bool
	// Index holds the table-index options, handed to retriever.Open
	// verbatim (shards, backend, durability, speed tier, retrieval mode);
	// nil builds the retriever's defaults.
	Index []retriever.Option
}

// maxRepairs bounds the Materializer's repair loop; the static pipeline of
// §3.5 runs without one.
const maxRepairs = 3

// Seeker is the assembled Pneuma-Seeker system (Figure 1): Conductor, IR
// System (Pneuma-Retriever + Document Database + Web Search), Materializer
// and the SQL executor, sharing state (T, Q) per session.
type Seeker struct {
	meter     *llm.Meter
	irsys     *ir.System
	knowledge *docdb.DB
	conductor *Conductor
}

// New assembles a Seeker over a corpus of tables. web and kb may be nil
// (a fresh knowledge DB is created when kb is nil). The context governs
// corpus ingest — canceling it abandons index construction and returns a
// typed pnerr.ErrCanceled.
func New(ctx context.Context, cfg Config, corpus map[string]*table.Table, web *websearch.Engine, kb *docdb.DB) (*Seeker, error) {
	if cfg.Model == nil {
		cfg.Model = llm.NewSimModel()
	}
	if kb == nil {
		kb = docdb.New()
	}
	meter := llm.NewMeter()

	ret, err := retriever.Open(cfg.Index...)
	if err != nil {
		return nil, err
	}
	// Bulk ingest: embedding runs on the worker pool and all index shards
	// build concurrently. The retriever orders documents internally, so
	// map iteration order cannot affect the built index. A disk-backed
	// index reopened from a populated directory is served as-is —
	// re-ingesting would only append replacement records and grow the
	// segment log every construction; delete the directory to rebuild
	// from the corpus.
	if ret.Len() == 0 {
		tables := make([]*table.Table, 0, len(corpus))
		for _, t := range corpus {
			tables = append(tables, t)
		}
		if err := ret.IndexTables(ctx, tables); err != nil {
			ret.Close()
			return nil, err
		}
		// Make the freshly built corpus durable right away for
		// disk-backed indexes (a no-op for the memory backend): the
		// table index does not mutate after assembly, so this is the one
		// flush that matters even if the caller never invokes
		// Seeker.Close.
		if err := ret.Flush(); err != nil {
			ret.Close()
			return nil, err
		}
	}
	if web != nil {
		web.SetEnabled(cfg.WebSearch)
	}
	irsys := ir.New(ret, kb, web)

	condModel := &llm.MeteredModel{Inner: cfg.Model, Meter: meter, Component: "conductor"}
	matModel := &llm.MeteredModel{Inner: cfg.Model, Meter: meter, Component: "materializer"}

	repairs := maxRepairs
	if cfg.DynamicPlanning != nil && !*cfg.DynamicPlanning {
		// The static pipeline has no repair loop: errors pass through.
		repairs = 0
	}
	cond := &Conductor{
		model:           condModel,
		irsys:           irsys,
		materializer:    NewMaterializer(matModel, repairs),
		maxActions:      cfg.MaxActions,
		webSearch:       cfg.WebSearch,
		sampleVals:      12,
		specialized:     cfg.Specialized == nil || *cfg.Specialized,
		dynamicPlanning: cfg.DynamicPlanning == nil || *cfg.DynamicPlanning,
	}
	if cond.maxActions <= 0 {
		cond.maxActions = DefaultMaxActions
	}
	return &Seeker{
		meter:     meter,
		irsys:     irsys,
		knowledge: kb,
		conductor: cond,
	}, nil
}

// Meter exposes the token/latency meter (Table 2, latency trade-off).
func (s *Seeker) Meter() *llm.Meter { return s.meter }

// IR exposes the IR System (examples and tests).
func (s *Seeker) IR() *ir.System { return s.irsys }

// Knowledge exposes the Document Database.
func (s *Seeker) Knowledge() *docdb.DB { return s.knowledge }

// Close flushes and releases the table index. It matters for disk-backed
// retrievers (retriever.WithBackend(retriever.Disk)), whose segment files stay
// open until closed; for the default memory backend it is a no-op. The
// Seeker must not be used afterwards.
func (s *Seeker) Close() error {
	if s.irsys == nil || s.irsys.Tables == nil {
		return nil
	}
	return s.irsys.Tables.Close()
}

// Session is one user's conversation: the shared state, the accumulated
// retrieved documents, and the message history. A Session is a
// single-caller object — one conversation has one author — but distinct
// sessions of the same Seeker may run concurrently (the Service admits
// them through its scheduler); everything they share (IR System, Document
// Database, meters) is concurrency-safe.
//
// The loop converges by revising (T, Q) turn after turn, so a session also
// remembers the work a later turn would otherwise repeat. It keeps the last
// planMemoSize (8) tables it materialized, keyed by the integration plan and
// the identity of the source tables the plan reads, and hands the same table
// back when the model plans the same integration again; and it keeps the
// prompt rendering (summary text and DocInfo) of every table document it has
// shown the model, keyed by document ID and table identity. Both rest on
// tables being immutable, a replaced table is a new identity and so a miss,
// the model sees the same prompts either way, and both die with the session:
// two sessions share neither.
type Session struct {
	seeker *Seeker
	// User identifies the user for knowledge capture.
	User string
	// State is the shared (T, Q).
	State *State
	// UserMessages is the full history of user inputs.
	UserMessages []string
	// Docs are the retrieved documents accumulated across turns.
	Docs []docs.Document
	// KnowledgeNotes are relevant notes retrieved from the Document
	// Database at session start and after knowledge capture.
	KnowledgeNotes []string
	// RetrievalRounds counts retrieve actions across the session.
	RetrievalRounds int
	// TurnLatency is the simulated latency of the last turn.
	TurnLatency time.Duration

	// meter accumulates this session's own model usage; the system meter
	// keeps recording global totals in parallel, so per-session accounting
	// works under concurrency without double-locking the shared meter on
	// the caller side.
	meter   *llm.Meter
	actions []ActionLog
	docIDs  map[string]struct{}

	memo      planMemo
	infos     map[renderKey]llm.DocInfo
	summaries map[renderKey]string
}

// renderKey names one prompt rendering of a table document: a document ID
// names one document (mergeDocs holds one per ID), the table pointer stands
// for its immutable contents, and n is the sample bound it was rendered at.
type renderKey struct {
	id string
	t  *table.Table
	n  int
}

// NewSession starts a conversation for the named user.
func (s *Seeker) NewSession(user string) *Session {
	return &Session{
		seeker: s,
		User:   user,
		State:  NewState(),
		meter:  llm.NewMeter(),
		docIDs: make(map[string]struct{}),

		infos:     make(map[renderKey]llm.DocInfo),
		summaries: make(map[renderKey]string),
	}
}

// Meter exposes the session's own token/latency accounting (the
// per-session slice of Table 2).
func (sess *Session) Meter() *llm.Meter { return sess.meter }

// Send delivers one user message and runs the Conductor turn. The returned
// Reply always carries a user-facing message and the current state view.
// The context bounds the whole turn: every model call, retrieval fan-out
// and materialization checks it, and cancellation surfaces as a typed
// pnerr.ErrCanceled. An empty message is rejected with pnerr.ErrBadQuery
// before any model call is billed.
func (sess *Session) Send(ctx context.Context, message string) (Reply, error) {
	if strings.TrimSpace(message) == "" {
		return Reply{}, pnerr.BadQueryf("session: send", "empty message")
	}
	if err := ctx.Err(); err != nil {
		return Reply{}, pnerr.Canceled("session: send", err)
	}
	s := sess.seeker
	// Attribute every model call in this turn to the session's own meter
	// (in addition to the system meter the MeteredModel already records
	// on); the turn latency below is read from the session meter, so
	// concurrent sessions cannot bleed latency into each other.
	ctx = llm.WithMeter(ctx, sess.meter)
	latBefore := sess.meter.Snapshot().TotalLatency

	// Knowledge capture (§3.3, §5.2): assumptions the user externalizes are
	// saved to the Document Database for cross-user transfer. Repeating the
	// identical message must not pile up duplicate notes, so the capture is
	// skipped when the database already holds the content verbatim.
	if captured, topic := captureKnowledge(message); captured != "" {
		if !s.knowledge.Contains(topic, captured) {
			if _, err := s.knowledge.Save(ctx, topic, captured, sess.User); err == nil {
				sess.KnowledgeNotes = append(sess.KnowledgeNotes, captured)
			}
		} else if !containsNote(sess.KnowledgeNotes, captured) {
			// Already in organizational memory (this or another session);
			// still surface it in this session's context.
			sess.KnowledgeNotes = append(sess.KnowledgeNotes, captured)
		}
	}
	// Surface previously captured knowledge relevant to this message.
	if notes, err := s.knowledge.Search(ctx, message, 3); err == nil {
		for _, n := range notes {
			body := n.Content
			// Document content is "topic\nbody"; sessions carry the body.
			if i := strings.IndexByte(body, '\n'); i >= 0 {
				body = body[i+1:]
			}
			if !containsNote(sess.KnowledgeNotes, body) {
				sess.KnowledgeNotes = append(sess.KnowledgeNotes, body)
			}
		}
	}

	reply, err := s.conductor.Turn(ctx, sess, message)
	sess.TurnLatency = sess.meter.Snapshot().TotalLatency - latBefore
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return reply, pnerr.Canceled("session: send", ctxErr)
		}
		return reply, err
	}
	return reply, nil
}

// mergeDocs adds newly retrieved documents, deduplicating by ID; returns
// how many were new.
func (sess *Session) mergeDocs(ds []docs.Document) int {
	added := 0
	for _, d := range ds {
		if _, dup := sess.docIDs[d.ID]; dup {
			continue
		}
		sess.docIDs[d.ID] = struct{}{}
		sess.Docs = append(sess.Docs, d)
		added++
	}
	return added
}

// docInfo is llm.NewDocInfo(d, sampleVals), built once per session for a
// table document.
func (sess *Session) docInfo(d docs.Document, sampleVals int) llm.DocInfo {
	if d.Table == nil {
		return llm.NewDocInfo(d, sampleVals)
	}
	k := renderKey{d.ID, d.Table, sampleVals}
	info, ok := sess.infos[k]
	if !ok {
		info = llm.NewDocInfo(d, sampleVals)
		sess.infos[k] = info
	}
	return info
}

// docSummary is d.Summary(sampleRows), rendered once per session for a table
// document.
func (sess *Session) docSummary(d docs.Document, sampleRows int) string {
	if d.Table == nil {
		return d.Summary(sampleRows)
	}
	k := renderKey{d.ID, d.Table, sampleRows}
	text, ok := sess.summaries[k]
	if !ok {
		text = d.Summary(sampleRows)
		sess.summaries[k] = text
	}
	return text
}

// docSummaries is docSummary(d, sampleRows) of every document in sess.Docs,
// in order.
func (sess *Session) docSummaries(sampleRows int) []string {
	parts := make([]string, len(sess.Docs))
	for i, d := range sess.Docs {
		parts[i] = sess.docSummary(d, sampleRows)
	}
	return parts
}

// shedDocs drops the lowest-ranked half of the accumulated documents —
// the Conductor's context-pressure relief valve.
func (sess *Session) shedDocs() {
	if len(sess.Docs) <= 2 {
		return
	}
	keep := len(sess.Docs) / 2
	dropped := sess.Docs[keep:]
	sess.Docs = sess.Docs[:keep]
	for _, d := range dropped {
		delete(sess.docIDs, d.ID)
	}
}

func (sess *Session) pushAction(a ActionLog) { sess.actions = append(sess.actions, a) }

func (sess *Session) drainActions() []ActionLog {
	out := sess.actions
	sess.actions = nil
	return out
}

// knowledgeMarkers are utterance patterns that signal externalized domain
// assumptions worth persisting.
var knowledgeMarkers = []string{
	"assume", "should be calculated", "relative to the previous",
	"should account for", "keep in mind that", "note that", "by definition",
}

// captureKnowledge decides whether a user message contains persistable
// domain knowledge, returning the note body and a topic.
func captureKnowledge(message string) (body, topic string) {
	lower := strings.ToLower(message)
	for _, m := range knowledgeMarkers {
		if strings.Contains(lower, m) {
			words := strings.Fields(message)
			n := len(words)
			if n > 6 {
				n = 6
			}
			return message, strings.Join(words[:n], " ")
		}
	}
	return "", ""
}

func containsNote(notes []string, body string) bool {
	for _, n := range notes {
		if n == body {
			return true
		}
	}
	return false
}
