// Package pneuma is the public API of the Pneuma Project reproduction: an
// LLM-powered data-discovery and preparation system that reifies a user's
// information need as a relational schema (T, Q) and converges it toward
// the latent need through iterative, language-guided interaction (Balaka &
// Castro Fernandez, CIDR 2026).
//
// Quick start — the request-scoped serving surface:
//
//	corpus := pneuma.ArchaeologyDataset()
//	svc, _ := pneuma.New(corpus, pneuma.WithShards(8))
//	defer svc.Close()
//	sess := svc.NewSession("analyst")
//	reply, _ := sess.Send(ctx, "What is the average organic matter percentage "+
//	    "for soil samples in the Malta region? Round your answer to 4 decimal places.")
//	fmt.Println(reply.Answer)
//
// The package re-exports the load-bearing types from the internal packages:
// the Seeker system (Conductor + IR System + Materializer + shared state),
// the deterministic SimModel language substrate, the table store and SQL
// engine, the benchmark datasets, and the evaluation harness that
// regenerates every table and figure of the paper.
//
// # Serving architecture
//
// New assembles a Service: a concurrency-safe facade over one shared
// Seeker that admits many sessions through a bounded request scheduler
// (WithMaxConcurrent). Every blocking call takes a context.Context that
// propagates end-to-end — into the shard fan-out, the embedding worker
// pool and every model call — so a slow or abandoned request is canceled
// without blocking anyone else: queued requests leave the queue the
// moment their context fires, and in-flight queries abandon un-started
// shard work. Cancellable or not, every request takes the same shard
// fan-out; the scheduler adds no steady-state allocation.
//
// Failures crossing the surface are typed: every error wraps *Error with
// a Code (ErrCanceled, ErrBadQuery, ErrIndexCorrupt, ErrClosed,
// ErrDegraded) checkable via errors.Is/errors.As; context.Canceled stays
// in the chain. Partially failed retrieval fan-outs degrade — the IR
// System fuses the sources that answered and reports the failures via
// errors.Join — instead of discarding good results.
//
// Token accounting is two-level: the Service meter accumulates global
// totals while each session's meter records its own calls, so
// Table-2-style accounting stays attributable per session under
// concurrency.
//
// # Retrieval architecture
//
// The IR System (§3.3) is built on a sharded hybrid index: documents are
// hash-partitioned by ID across N shards (default derived from
// GOMAXPROCS), each shard owning a pluggable storage backend — an HNSW
// graph plus a BM25 inverted index, either purely in memory
// (BackendMemory, the default) or additionally persisted to an
// append-only segment file per shard (BackendDisk) that is replayed on
// open and made durable by Retriever.Flush/Close. All shards score BM25
// against one shared corpus-statistics object, so sharded ranking is
// identical to single-index ranking at any shard count.
//
// Corpus ingest embeds documents with a worker pool and builds all shards
// concurrently; queries fan out to every shard and to every source
// (tables, knowledge, web) concurrently, and results are merged with
// reciprocal-rank fusion and cached in a bounded LRU that index mutations
// invalidate. Ingest parallelism, shard count, backend, beam width and
// scheduler width are all options on New (WithShards, WithIndexWorkers,
// WithBackend, WithIndexDir, WithEf, WithMaxConcurrent).
//
// # Determinism contract
//
// Results for a fixed corpus are deterministic regardless of worker
// scheduling, shard count or backend: shards always ingest their
// partition in sorted document order, BM25 statistics updates commute,
// score accumulation orders are fixed, and every merge breaks ties by
// document ID. A disk-backed index reopened from its segment files
// answers queries byte-identically to the index that wrote them.
// Concurrent sessions receive the same replies a solo session gets.
package pneuma
