// Package bm25 implements an Okapi BM25 inverted index (Robertson &
// Zaragoza 2009), the lexical half of Pneuma-Retriever's hybrid index and
// the engine behind the FTS baseline.
//
// Documents are added incrementally with Index.Add and tombstoned by
// Index.Delete; scoring uses the standard BM25 term weighting with the
// "plus 1" IDF variant so that terms present in more than half the corpus
// never receive negative weight.
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
// would assign. Stats updates are commutative (incremental add/remove, no
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
// prefix inside its own document table. Only slot-reassigning rebuilds
// (Compact, a snapshot restore) start a fresh lineage.
//
// # Serialization
//
// WriteTo/ReadFromShared serialize the index state as one binary section:
// the document table plus the postings map stored term-wise, from which the
// restore rebuilds the inverted index with arena-backed posting lists and
// per-document term-frequency windows — no re-tokenization, one map
// insert per distinct term. A shared Stats object is never serialized:
// its updates are commutative, so each restored shard folds its live
// aggregate back in (immediately when the Stats is already attached, or
// deferred via DeferStats/AttachStats so a multi-section snapshot can
// fully validate before any shared state is touched). Compact returns a
// tombstone-free copy — the state a replay of a compacted segment log
// would build — without touching the shared Stats.
//
// All types in this package are safe for concurrent use.
package bm25
