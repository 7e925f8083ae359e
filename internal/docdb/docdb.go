// Package docdb implements the paper's Document Database (§3.3): a store
// for domain knowledge that reuses Pneuma-Retriever's indexer, enabling
// cross-user knowledge transfer — "if one user specifies that estimating
// tariff impacts requires accounting for both direct and indirect tariffs,
// subsequent tariff-related queries can leverage that insight."
package docdb

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pneuma/internal/docs"
	"pneuma/internal/retriever"
)

// Note is one captured piece of domain knowledge.
type Note struct {
	// ID is assigned by the database.
	ID string
	// Topic is a short label for the knowledge ("tariff impact").
	Topic string
	// Body is the knowledge text itself.
	Body string
	// Author identifies the user (or agent) whose interaction produced the
	// note; knowledge transfers across authors by design.
	Author string
	// CreatedAt is the capture timestamp.
	CreatedAt time.Time
}

// DB is the knowledge store. Safe for concurrent use.
type DB struct {
	mu    sync.RWMutex
	seq   int
	notes map[string]Note
	// byContent maps topic+"\n"+body to the note ID that first captured
	// it, so repeated identical knowledge is recognized instead of saved
	// again (§3.3: the Document Database is shared organizational memory,
	// not a chat log).
	byContent map[string]string
	index     *retriever.Retriever
	clock     func() time.Time
}

// Option configures a DB.
type Option func(*DB)

// WithClock overrides the timestamp source (tests and deterministic runs).
func WithClock(fn func() time.Time) Option {
	return func(d *DB) { d.clock = fn }
}

// New creates an empty knowledge database with its own hybrid index.
func New(opts ...Option) *DB {
	// A single shard: knowledge notes arrive one at a time and the corpus
	// stays small, so shard fan-out would only fragment BM25 statistics.
	d := &DB{
		notes:     make(map[string]Note),
		byContent: make(map[string]string),
		index:     retriever.New(retriever.WithShards(1)),
		clock:     time.Now,
	}
	for _, o := range opts {
		o(d)
	}
	return d
}

// Save captures a knowledge note and indexes it. It returns the stored note
// with its assigned ID. Saving content (topic, body) that the database
// already holds verbatim is a no-op that returns the existing note — the
// store deduplicates so repeated identical user messages cannot pile up
// duplicate notes. A failed save (e.g. canceled ctx) stores nothing: the
// note and its dedupe key are only committed after indexing succeeds, so
// a retry with the same content is a real save, not a silent no-op
// returning an unsearchable note.
func (d *DB) Save(ctx context.Context, topic, body, author string) (Note, error) {
	key := topic + "\n" + body
	// The whole save runs under d.mu so two concurrent saves of the same
	// content cannot both pass the dedupe check; the index has its own
	// locking and never takes d.mu, so there is no ordering cycle.
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, dup := d.byContent[key]; dup {
		return d.notes[id], nil
	}
	n := Note{
		ID:        fmt.Sprintf("note:%d", d.seq+1),
		Topic:     topic,
		Body:      body,
		Author:    author,
		CreatedAt: d.clock(),
	}
	if err := d.index.IndexDocuments(ctx, []docs.Document{{
		ID:      n.ID,
		Kind:    docs.KindKnowledge,
		Title:   topic,
		Content: key,
		Source:  "document-db",
		Meta:    map[string]string{"author": author},
	}}); err != nil {
		return Note{}, err
	}
	d.seq++
	d.notes[n.ID] = n
	d.byContent[key] = n.ID
	return n, nil
}

// Contains reports whether the database already holds a note with exactly
// this topic and body — the dedupe check Session.Send runs before capture.
func (d *DB) Contains(topic, body string) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, ok := d.byContent[topic+"\n"+body]
	return ok
}

// Version returns the underlying index's mutation counter; the IR
// System's query cache keys on it.
func (d *DB) Version() uint64 { return d.index.Version() }

// Search returns the top-k knowledge notes relevant to the query.
// Cancellation propagates to the underlying hybrid index.
func (d *DB) Search(ctx context.Context, query string, k int) ([]docs.Document, error) {
	return d.index.Search(ctx, query, k)
}

// Get returns a note by ID.
func (d *DB) Get(id string) (Note, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n, ok := d.notes[id]
	return n, ok
}

// Len returns the number of stored notes.
func (d *DB) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.notes)
}

// All returns every note (unordered); used by the knowledge-capture
// example and by tests.
func (d *DB) All() []Note {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]Note, 0, len(d.notes))
	for _, n := range d.notes {
		out = append(out, n)
	}
	return out
}
