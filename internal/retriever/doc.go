// Package retriever implements Pneuma-Retriever (Balaka et al., SIGMOD
// 2025), the table-discovery system the paper builds on: a hybrid index
// combining an HNSW vector store with a BM25 inverted index (§3.3), fused
// with reciprocal-rank fusion.
//
// # Sharding
//
// The index is sharded: documents are hash-partitioned by ID across N
// shards (default DefaultShards, GOMAXPROCS-derived). A shard is one
// concrete type: an in-memory index (HNSW graph, BM25 inverted index and
// document map), a writer lock, and on the Disk backend a segment log.
// Every write is a batch: IndexTables and IndexDocuments (a slice of one
// is the single-document form) embed documents with a worker pool and
// build all shards concurrently, and DeleteDocuments tombstones per shard
// concurrently. A shard is written through exactly two paths, a batch of
// adds and a batch of deletes, each applied to the in-memory index first
// and then appended to the log; a batch of n leaves a shard, log
// included, exactly as n batches of one would.
// Search fans out to every shard concurrently and merges the per-shard
// candidate lists deterministically (score descending, document ID
// ascending) before rank fusion. Each shard's vector half walks its HNSW
// graph on int8 codes and rescores the finalists in exact float32 (see
// pneuma/internal/hnsw); there is no option to walk the float32 arena.
//
// # Backends
//
// WithBackend selects whether shards persist:
//
//   - Memory (default) keeps each shard's index entirely in RAM, with no
//     log.
//   - Disk gives each shard a log: every mutation is also appended to an
//     append-only binary segment file per shard under the index directory
//     (WithDir), and the built state is serialized to a per-shard snapshot
//     on Flush/Close, so reopening is a bulk load instead of a graph
//     rebuild. Queries run against the same in-memory index as Memory,
//     so the two backends return identical results at identical latency.
//
// Disk-backed retrievers are created with Open (the error-returning
// constructor); New panics on I/O failure and is meant for Memory-backed
// use.
//
// # On-disk format (format 2)
//
// An index directory holds manifest.json (shard count, embedding dim and
// the segment format generation — all pinned: reopen uses the manifest's
// layout, and a format from a newer build fails with a typed
// pnerr.ErrIndexCorrupt), one segment file and at most one snapshot file
// per shard, and an advisory lock file while the index is open.
//
// Segment files (shard-NNNN.seg) begin with a 16-byte header — magic
// "pnsg", format word, and a generation counter that changes on every
// compaction rewrite — followed by length-prefixed records:
//
//	uvarint payloadLen | payload | CRC32(payload)
//	payload = op byte (1=add, 2=del) | id string
//	          [add: vector as raw little-endian float32s | document]
//
// Documents are encoded natively: strings length-prefixed, table cells as
// a kind byte plus an exact payload (zigzag-varint ints, raw IEEE 754
// doubles, second+nanosecond timestamps normalized to UTC), so values —
// including sub-second timestamps and NULL-looking string literals —
// round-trip byte-identically instead of degrading through canonical
// strings.
//
// Snapshot files (shard-NNNN.snap) serialize the built shard state — the
// document store, the HNSW struct-of-arrays (vector arena, id/level/
// tombstone/norm slices, adjacency lists, level-generator position; the
// int8 codes are not stored but rebuilt from the vector arena at load) and
// the BM25 document table with term-wise postings — under a header
// carrying the snapshot version, the segment generation it belongs to,
// the covered record count and the high-water mark (segment byte offset
// folded in). The whole file is CRC32-guarded and written atomically.
//
// # Cold start, recovery and compat policy
//
// Open bulk-loads each shard from its snapshot and replays only segment
// records past the high-water mark — O(read) instead of O(rebuild). Every
// failure degrades toward the segment log, never toward wrong state: a
// torn or checksum-failing snapshot, a snapshot from a different version,
// one whose HNSW section carries int8 arenas (written by older builds with
// quantization switched on) or one whose generation does not match the
// segment falls back to a full
// replay (and the snapshot is rewritten so the next open is fast again);
// a torn segment tail or a mid-segment CRC mismatch truncates the log at
// the last whole record — boundaries after damage cannot be trusted, so
// recovery keeps the longest clean prefix. One segment format is read: a
// manifest whose format is not this build's (the pre-binary JSON-lines
// index has no format field at all) fails Open with a typed
// pnerr.ErrIndexCorrupt that says to delete the directory and rebuild,
// and nothing in the directory is touched. The snapshot is purely derived
// state: deleting every .snap file is always safe.
//
// # Durability and compaction
//
// Records buffer in memory and become durable on Flush/Close;
// WithSyncBytes(n) and WithSyncInterval(d) additionally have the
// group-commit flusher fsync once n bytes are pending or d after the
// first pending record, shrinking the crash-loss window (including
// tombstones, whose loss resurrects deleted documents). Deletes and
// replacements accumulate dead records in the log; once their fraction
// reaches DefaultCompactionRatio (0.5), the group-commit flusher rewrites
// the segment to exactly the live documents under a new generation and
// installs in-memory state that matches a replay of the rewritten log —
// the HNSW graph is reconstructed without its tombstoned nodes, so
// post-compaction results are those of a fresh index over the surviving
// corpus (a rewrite that a concurrent delete or re-add would leave holding
// a tombstone starts over instead of committing). The rewrite starts from the write path as soon as the threshold
// is crossed; Flush and Close wait for any that is due, so both return
// with every shard under the threshold and its snapshot current.
//
// While open, the Disk backend holds an advisory lock file (PID inside)
// in the index directory: a second process opening the same directory
// fails fast with a typed pnerr.ErrIndexLocked instead of interleaving
// writes; locks left by dead processes are detected and broken.
//
// # Global BM25 statistics
//
// All shards share one bm25.Stats object carrying the corpus-wide
// document count, average document length and per-term document
// frequencies, so a document's BM25 score is exactly what a single
// unsharded index over the whole corpus would assign — shard count never
// changes ranking, even on corpora of a handful of documents where
// per-shard statistics would diverge badly. Stats updates are commutative
// — including the per-shard aggregate folds of snapshot loading — so the
// restored totals are independent of shard load order. A shard restored
// from a snapshot counts into a private Stats first and is merged into the
// shared one (bm25.Index.AttachStats) only once every section of its
// snapshot has validated; a background compaction's shadow shard likewise
// counts privately and is re-pointed at the shared Stats when installed.
//
// # Determinism contract
//
// Results for a fixed corpus are identical regardless of shard count,
// backend, worker count, goroutine scheduling or GOMAXPROCS: bulk ingest
// sorts documents by ID and writes each shard's partition sequentially
// under its lock, HNSW level generation is seeded per shard, BM25
// statistics updates are commutative, and every merge breaks score ties
// by document ID. A Disk-backed index reopened from its segment files
// replays the exact mutation order; one reopened from snapshots restores
// the exact built state (including the level generator's position) — both
// answer queries bit-identically to the index that wrote them, at any
// shard count.
package retriever
