// Package hnsw implements the Hierarchical Navigable Small World
// approximate-nearest-neighbour index of Malkov & Yashunin (2018), the
// vector half of Pneuma-Retriever's hybrid index.
//
// The implementation follows the paper's Algorithms 1-5: multi-layer greedy
// search from a single entry point, ef-bounded best-first search per layer,
// and the heuristic neighbour-selection rule that keeps the graph navigable
// by preferring diverse neighbours. Level assignment uses the standard
// exponential distribution with normalization factor 1/ln(M), drawn from a
// seeded deterministic PRNG so index builds are reproducible.
//
// # Memory layout
//
// Nodes are stored struct-of-arrays: all vectors live in one contiguous
// float32 arena (node i's vector is the dim-sized window at i*dim), with
// parallel slices for IDs, levels, tombstone flags, per-layer adjacency
// lists and precomputed vector norms. Beam search therefore walks flat
// slices instead of chasing per-node pointers, and result scoring reuses
// the stored norms instead of recomputing two norms per candidate.
//
// # Search scratch and the sync.Pool lifecycle
//
// The per-search working state — the candidate min-heap, the result
// max-heap, the epoch-stamped visited array and the output buffer — lives
// in a searchScratch obtained from a package-level sync.Pool, so a
// steady-state Search performs no heap allocation beyond the caller-owned
// result slice. Two caveats follow from the sync.Pool contract:
//
//   - Pooled scratch is dropped wholesale at any GC cycle, so the first
//     search after a collection re-grows its heaps and visited array; only
//     steady-state searches are allocation-free. Allocation budgets in
//     tests must leave headroom for that refill.
//   - A scratch must never be retained past the Search call that got it
//     (nothing searchLayerLocked returns may alias scratch memory after
//     the public method returns a fresh []Result), and the visited array
//     is epoch-stamped precisely so a recycled scratch needs no clearing:
//     each search bumps the epoch and stale marks from earlier searches —
//     possibly against other Index instances sharing the pool — compare
//     unequal. On uint32 epoch wrap-around the array is zeroed once.
//
// # Epoch lifecycle: the RCU read path
//
// The index serves reads and writes concurrently without reader locks.
// All read-path state lives in an immutable graph value published behind
// one atomic pointer; Search, Len, PinLive and AppendSnapshot load it
// once and use it unlocked for the whole operation. Writers (serialized
// by a mutex readers never touch) open a batch as a shallow copy of the
// published view, clone only what the batch mutates, and publish the
// draft in a single atomic swap. Consequences worth knowing:
//
//   - A reader observes the index exactly as of some publish — batches
//     become visible atomically, never partially. Two loads of the view
//     may differ; one operation's single load is always self-consistent.
//   - Superseded views are retired by the garbage collector when their
//     last reader drains. There is no epoch counter to advance and no
//     grace period to wait out — the Go GC is the reclamation mechanism,
//     which is what makes the scheme safe to expose to arbitrary
//     callers.
//   - Append-only arrays (the vector arena, IDs, levels, norms) are
//     shared between the draft and published views: the draft appends
//     past the published length, possibly in place when spare capacity
//     allows. This is sound because a published view never indexes
//     beyond its own length and slots below it are never rewritten;
//     anything mutated in place (adjacency lists, tombstones) is cloned
//     into the draft first, at most once per batch.
//   - A batch's mutation cost is therefore borne entirely by the writer;
//     what a batch can still cost concurrent readers is the scheduler.
//     AddBatch yields between inserts (reads-first pacing) so
//     on a saturated machine reader tail latency is bounded by one
//     insert's work — bulk ingest slows down before query p99 does. On
//     an idle machine the yields are nanoseconds.
//   - Nothing returned to a caller aliases the published arrays (results
//     are copied out), so callers cannot extend a view's lifetime by
//     accident.
//
// # Search: an int8 walk with exact float32 rescoring
//
// Every insert also stores a scalar-quantized copy of its vector:
// per-vector offset and scale map the float32 values onto int8 codes in
// [-127, 127], kept in a second contiguous arena one quarter the size of
// the float32 one. Every query runs in two phases:
//
//   - Traversal (greedy descent and the layer-0 beam) scores candidates on
//     the int8 arena. The squared-L2 surrogate expands the quantized dot
//     product (an int32-accumulating kernel — AVX2 assembly on amd64 when
//     CPUID allows, an unrolled scalar loop otherwise, bit-identical by
//     construction and differentially tested) with the exact stored norms
//     and per-vector dequantization coefficients folded into per-query
//     constants. This phase is approximate: quantization error can locally
//     reorder near-ties, which the next phase repairs.
//   - Rescoring re-ranks the top k×4 traversal candidates (capped at the
//     beam width — a wider rescore cannot recover candidates the beam
//     never surfaced) with the exact float32 kernel over the full-precision
//     arena, which is retained for this purpose and for graph
//     construction.
//
// Returned scores are therefore float32-exact cosines, and only which
// candidates reach the rescore set depends on the codes. Over a 1k ×
// 64-dim corpus, recall@10 against an exact cosine scan is 0.9935, the
// same as the float32 walk that the int8 walk replaced (at dim 256:
// 0.9505 against the float32 walk's 0.9520). Construction runs entirely on float32 distances, so
// the graph does not depend on the codes. On the 20 000-table retrieval
// workload, whose float32 arena is 5× the L2, the int8 walk cut the
// median CPU per search from 1 640 to 1 408 µs.
//
// # Serialization
//
// AppendSnapshot/LoadSnapshot serialize the struct-of-arrays state
// directly — the vector arena, the parallel slices, the adjacency lists,
// the entry point and the level-generator draw count — so a persisted
// graph is restored by a bulk load instead of re-running construction.
// The int8 arenas are not serialized: LoadSnapshot rebuilds them from the
// float32 arena with the same deterministic quantizer the inserts use, and
// it rejects a section that carries them (the layout of older builds that
// could switch quantization on), so the retriever rebuilds that shard from
// its log. The restore is exact: queries answer bit-identically, and
// because the level generator is fast-forwarded to the writer's stream
// position, inserts after the restore assign the same levels (and
// therefore build the same graph) as they would have on the
// never-serialized index.
// The construction parameters are package constants; of the Config, the
// reading index must be created with the same Seed.
package hnsw
