// Package bm25 implements an Okapi BM25 inverted index (Robertson &
// Zaragoza 2009), the lexical half of Pneuma-Retriever's hybrid index and
// the engine behind the FTS baseline.
//
// Documents are added in batches with Index.AddBatch and tombstoned by
// Index.DeleteBatch (a batch of one is the single-document form); scoring
// uses the standard BM25 term weighting with the "plus 1" IDF variant so
// that terms present in more than half the corpus never receive negative
// weight.
//
// A batch sorts each text's tokens outside the writer lock and walks
// their runs under it: each distinct term is interned to a slot and gets
// an 8-byte (document, term frequency) posting. A term string lives once
// per index, in its slot's posting-list header, which the term table and
// the Stats counts key on. A document keeps its (slot, term frequency)
// pairs for deletes, 8 bytes each, cut from one arena per batch sized by
// its distinct terms; no token-count-sized slice outlives the batch.
//
// # Global statistics for sharded deployments
//
// BM25 scores depend on corpus-wide statistics: the document count N, the
// average document length avgdl, and per-term document frequencies. When a
// corpus is hash-partitioned across shard indexes, each shard's local
// statistics drift from the global ones — badly so on small corpora — and
// per-shard scores stop being comparable to a single index's. NewWithStats
// solves this: every shard contributes its documents to one shared Stats
// object and scores queries against it, so a document's BM25 score is
// bit-identical to the score a monolithic index over the whole corpus
// would assign. A Stats object is the only way an index counts: New gives
// the index a private one, so a lone index and a shard score by the same
// code. Stats updates are commutative (incremental add/remove, no
// rescans), which preserves the determinism contract of the sharded
// retriever: the final statistics after a concurrent bulk ingest do not
// depend on goroutine interleaving.
//
// # Query-path allocation discipline
//
// Search accumulates scores in a pooled dense array indexed by document
// slot (epoch-stamped, so recycled scratch needs no zeroing), caches each
// touched document's length norm once per query, deduplicates query terms
// by sorting the token slice in place, reads document frequencies from
// incrementally maintained counters instead of scanning posting lists for
// tombstones, and selects the top k with a bounded heap rather than
// sorting every scored document. Steady-state queries allocate only the
// tokenizer output and the returned result slice; the committed ceiling is
// enforced by an AllocsPerRun test. The usual sync.Pool caveat applies: a
// GC cycle may drop the pooled scratch, so the first query after a
// collection re-grows it.
//
// # Lock-free reads under mutation
//
// Queries never take the writer lock: all read-path state lives in an
// immutable view published behind one atomic pointer, which Search pins
// with a single load (the same epoch/RCU discipline as package hnsw —
// see its doc.go for the lifecycle). Writers, serialized by a mutex
// readers never touch, open a batch as a shallow copy of the view and
// publish it in one atomic swap. A batch's cost is O(its documents),
// not O(the index): the term→slot table is an insert-only sync.Map
// shared by every view of a slot lineage (each view bounds lookups by
// its own slot count, so later batches' terms stay invisible to it),
// and posting lists grow behind stable per-term atomically published
// headers, trimmed per view by document index — postings are appended
// in document order, so a view's visible postings are exactly the
// prefix inside its own document table. Only slot-reassigning installs
// (a snapshot restore, AdoptFrom) start a fresh lineage.
//
// # Serialization
//
// AppendSnapshot/LoadSnapshot serialize the index state as one binary
// section, the way package hnsw does: the document table plus the
// postings stored term-wise, terms in sorted order (the writer sorts the
// view's slots by their term strings), from which the restore rebuilds
// the inverted index with arena-backed posting lists and per-document
// slot lists — no re-tokenization, one map insert per distinct term. A
// posting whose document or term frequency does not fit in 4 bytes is
// rejected as pnerr.ErrIndexCorrupt, never truncated. A Stats object is
// never serialized: its updates are commutative, so each restored shard
// folds its live aggregate back into the Stats it loads against. The
// retriever restores each shard against a private Stats and merges it
// into the shared one with AttachStats only once the whole multi-section
// snapshot has validated, so a bad snapshot never touches shared state.
// AdoptFrom installs a tombstone-free shadow built over the live
// documents against a private Stats — the state a replay of a compacted
// segment log would build — and re-points it at this index's Stats
// without touching it.
//
// All types in this package are safe for concurrent use.
package bm25
