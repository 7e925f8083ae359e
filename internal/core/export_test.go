package core

import (
	"context"
	"strings"

	"pneuma/internal/docs"
	"pneuma/internal/llm"
	"pneuma/internal/table"
)

// What a Session remembers, opened up for the external test package.

// PlanMemoSize is the memo's bound.
const PlanMemoSize = planMemoSize

// MaterializeInSession materializes the way the Conductor does: through the
// session's memo.
func (m *Materializer) MaterializeInSession(ctx context.Context, sess *Session, spec llm.TableSpec, retrieved []docs.Document, queries []string) (MaterializeResult, error) {
	return m.materialize(ctx, spec, retrieved, queries, &sess.memo)
}

// MemoEntry is one remembered materialization.
type MemoEntry struct {
	Result *table.Table
	entry  memoEntry
}

// Memo lists what the session remembers, most recently used first.
func (sess *Session) Memo() []MemoEntry {
	out := make([]MemoEntry, len(sess.memo.entries))
	for i, e := range sess.memo.entries {
		out[i] = MemoEntry{Result: e.result, entry: e}
	}
	return out
}

// Execute runs the entry's plan afresh over the sources it was keyed by.
func (e MemoEntry) Execute() (*table.Table, error) {
	byName := make(map[string]*table.Table)
	for i, step := range e.entry.steps {
		if src := e.entry.sources[i]; src != nil {
			byName[strings.ToLower(step.Table)] = src
		}
	}
	return (&Materializer{}).execute(llm.MaterializePlan{Steps: e.entry.steps}, llm.TableSpec{Name: e.entry.name}, byName)
}

// MergeDocs, ShedDocs, DocInfo and DocSummary are the session's document
// bookkeeping and its rendering cache, as Conductor.plan uses them.
func (sess *Session) MergeDocs(ds []docs.Document) int { return sess.mergeDocs(ds) }
func (sess *Session) ShedDocs()                        { sess.shedDocs() }
func (sess *Session) DocInfo(d docs.Document, n int) llm.DocInfo {
	return sess.docInfo(d, n)
}
func (sess *Session) DocSummary(d docs.Document, n int) string { return sess.docSummary(d, n) }
