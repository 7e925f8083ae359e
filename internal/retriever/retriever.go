package retriever

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pneuma/internal/bm25"
	"pneuma/internal/docs"
	"pneuma/internal/embed"
	"pneuma/internal/hnsw"
	"pneuma/internal/pnerr"
	"pneuma/internal/table"
)

// Mode selects which half (or both) of the hybrid index answers queries —
// the retrieval ablation of the paper's §3.3 (README, "Knob reference";
// BenchmarkAblationRetrievalMode).
type Mode int

// Retrieval modes.
const (
	// ModeHybrid fuses vector and BM25 rankings (the paper's design).
	ModeHybrid Mode = iota
	// ModeVectorOnly uses only the HNSW side.
	ModeVectorOnly
	// ModeBM25Only uses only the inverted-index side.
	ModeBM25Only
)

// rrfK is the reciprocal-rank-fusion constant (standard value 60).
const rrfK = 60.0

// hnswSeed keeps shard graph construction reproducible; shard i uses
// hnswSeed+i so the shards are deterministic but not identical graphs.
const hnswSeed = 20260118

// DefaultCompactionRatio is the dead-record fraction (superseded adds,
// deleted documents and their tombstone records, as a share of all segment
// records) at which a Disk shard's segment is rewritten to its live records.
const DefaultCompactionRatio = 0.5

// DefaultShards returns the default shard count: GOMAXPROCS clamped to
// [4,16]. The floor matters even on a single core — HNSW insertion cost
// grows with graph size, so four smaller graphs ingest roughly twice as
// fast as one big one; the ceiling keeps per-query fan-out bounded.
func DefaultShards() int {
	n := runtime.GOMAXPROCS(0)
	if n < 4 {
		n = 4
	}
	if n > 16 {
		n = 16
	}
	return n
}

// ingestBatchSize is the per-shard chunk size bulk ingest feeds to
// indexBatch: large enough to amortize the copy-on-write of the published
// read views, small enough that cancellation lands between chunks and
// concurrent searches see the corpus appear progressively.
const ingestBatchSize = 64

// Retriever is the sharded hybrid table-discovery index. All methods are
// safe for concurrent use.
type Retriever struct {
	emb       *embed.Embedder
	mode      Mode
	workers   int
	numShards int
	backend   Backend
	dir       string
	// compactRatio is the Disk backend's compaction trigger, always
	// DefaultCompactionRatio outside this package's tests.
	compactRatio float64
	// compactor runs the Disk backend's background compactions from Open
	// to Close (nil for Memory).
	compactor *compactor
	// lock is the advisory single-writer lock on the Disk backend's index
	// directory, held from Open to Close. Nil for the Memory backend.
	lock *dirLock
	// stats is the corpus-wide BM25 statistics object every shard's
	// lexical index contributes to and scores against, so per-shard BM25
	// scores equal single-index scores on the same corpus.
	stats  *bm25.Stats
	shards []*shard
	// version counts index mutations (ingest and delete); callers that
	// cache query results use it for invalidation.
	version atomic.Uint64
	// closed flips once on Close; every subsequent call fails with a typed
	// pnerr.ErrClosed instead of touching released backends.
	closed atomic.Bool
	// refs counts in-flight operations (searches, ingests, flushes,
	// including fan-out goroutines that can outlive a canceled Search).
	// Close flips closed and then waits for refs to drain before releasing
	// the backends, so no ingest or flush is still appending to a Disk
	// shard's segment file when Close syncs and closes it. Readers never
	// block on this — acquire is an atomic increment plus a closed
	// re-check.
	refs atomic.Int64
	// scratch pools *searchScratch values so steady-state Search reuses
	// its merge buffers and fusion map instead of allocating per query.
	scratch sync.Pool
	// openWall/openShardSum record the Disk backend's cold-open fan-out:
	// wall clock of the concurrent shard open versus the sum of per-shard
	// open times (what a sequential open would cost). Written once by
	// Open, read by tests asserting the parallel open pays.
	openWall     time.Duration
	openShardSum time.Duration
}

// Option configures a Retriever.
type Option func(*Retriever)

// WithMode sets the retrieval mode (default ModeHybrid).
func WithMode(m Mode) Option {
	return func(r *Retriever) { r.mode = m }
}

// WithShards sets the shard count (default DefaultShards()). Values < 1
// are ignored.
func WithShards(n int) Option {
	return func(r *Retriever) {
		if n >= 1 {
			r.numShards = n
		}
	}
}

// WithWorkers sets the embedding worker-pool size used by bulk ingest
// (default GOMAXPROCS). Values < 1 are ignored.
func WithWorkers(n int) Option {
	return func(r *Retriever) {
		if n >= 1 {
			r.workers = n
		}
	}
}

// WithBackend selects the shard storage backend (default Memory). The Disk
// backend persists each shard to an append-only segment file under the
// index directory (see WithDir) and rebuilds the in-memory structures from
// it on Open.
func WithBackend(b Backend) Option {
	return func(r *Retriever) {
		if b != "" {
			r.backend = b
		}
	}
}

// WithDir sets the index directory the Disk backend stores its manifest
// and segment files in. Opening a directory that already holds an index
// loads it; an empty or missing directory starts a fresh index. Ignored by
// the Memory backend. When unset, the Disk backend uses a fresh temporary
// directory (ephemeral across processes, durable within one).
func WithDir(path string) Option {
	return func(r *Retriever) {
		if path != "" {
			r.dir = path
		}
	}
}

// Open creates a retriever, loading any existing index when the Disk
// backend points at a directory with persisted segments. This is the
// error-returning constructor; New is the panicking convenience wrapper
// for configurations that cannot fail (the Memory backend).
func Open(opts ...Option) (*Retriever, error) {
	r := &Retriever{
		emb:          embed.New(),
		mode:         ModeHybrid,
		workers:      runtime.GOMAXPROCS(0),
		numShards:    DefaultShards(),
		backend:      Memory,
		stats:        bm25.NewStats(),
		compactRatio: DefaultCompactionRatio,
	}
	for _, o := range opts {
		o(r)
	}
	switch r.backend {
	case Memory:
		r.shards = make([]*shard, r.numShards)
		for i := range r.shards {
			r.shards[i] = &shard{mem: newMemoryBackend(r.emb.Dim(), hnswSeed+int64(i), r.stats)}
		}
	case Disk:
		if r.dir == "" {
			dir, err := os.MkdirTemp("", "pneuma-retriever-*")
			if err != nil {
				return nil, err
			}
			r.dir = dir
		}
		if err := os.MkdirAll(r.dir, 0o755); err != nil {
			return nil, err
		}
		// Advisory single-writer lock: a second process opening this
		// directory fails fast with a typed pnerr.ErrIndexLocked instead
		// of interleaving segment writes with ours.
		lock, err := acquireDirLock(r.dir)
		if err != nil {
			return nil, err
		}
		r.lock = lock
		m, err := loadOrCreateManifest(r.dir, r.numShards, r.emb.Dim())
		if err != nil {
			lock.release()
			if os.IsNotExist(err) || os.IsPermission(err) {
				return nil, err
			}
			return nil, pnerr.Corrupt("retriever: open", err)
		}
		// The manifest's shard count wins: hash routing must match the
		// layout the segments were written under.
		r.numShards = m.Shards
		r.compactor = newCompactor()
		// Shards load concurrently: snapshot loads and replays are
		// independent per shard, and the shared BM25 statistics updates
		// are commutative, so the built state is identical to a
		// sequential open regardless of goroutine interleaving. Per-shard
		// durations and the fan-out wall clock are recorded so tests (and
		// curious operators) can verify the parallelism actually pays:
		// openShardSum is what a sequential open would have cost.
		logs := make([]*diskBackend, r.numShards)
		errs := make([]error, r.numShards)
		durs := make([]time.Duration, r.numShards)
		openStart := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < r.numShards; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				t0 := time.Now()
				seg := filepath.Join(r.dir, fmt.Sprintf("shard-%04d.seg", i))
				snap := filepath.Join(r.dir, fmt.Sprintf("shard-%04d.snap", i))
				logs[i], errs[i] = openDiskBackend(seg, snap, r.emb.Dim(), hnswSeed+int64(i), r.stats, r.compactor, r.compactRatio)
				durs[i] = time.Since(t0)
			}(i)
		}
		wg.Wait()
		r.openWall = time.Since(openStart)
		for _, d := range durs {
			r.openShardSum += d
		}
		for _, err := range errs {
			if err == nil {
				continue
			}
			// Don't leak the segment files the other shards opened.
			for _, db := range logs {
				if db != nil {
					db.Close()
				}
			}
			lock.release()
			if os.IsNotExist(err) || os.IsPermission(err) {
				return nil, err
			}
			return nil, pnerr.Corrupt("retriever: open", err)
		}
		r.shards = make([]*shard, r.numShards)
		for i, db := range logs {
			r.shards[i] = &shard{mem: db.mem, log: db}
		}
	default:
		return nil, fmt.Errorf("retriever: unknown backend %q", r.backend)
	}
	if r.compactor != nil {
		// The compactor starts only once every shard opened — error paths
		// above return before any goroutine exists to leak.
		go r.runCompactor()
	}
	return r, nil
}

// New creates an empty retriever, panicking if the configuration cannot be
// opened. Only the Disk backend can fail (I/O); Memory-backed construction
// never panics. Callers selecting WithBackend(Disk) should prefer Open.
func New(opts ...Option) *Retriever {
	r, err := Open(opts...)
	if err != nil {
		panic(err)
	}
	return r
}

// NumShards returns the shard count.
func (r *Retriever) NumShards() int { return len(r.shards) }

// Backend returns the configured shard storage backend.
func (r *Retriever) Backend() Backend { return r.backend }

// Dir returns the index directory (empty for the Memory backend).
func (r *Retriever) Dir() string {
	if r.backend == Memory {
		return ""
	}
	return r.dir
}

// acquire registers an in-flight operation against the lifecycle counter
// and re-checks closed, in that order — the mirror image of Close, which
// flips closed and then reads the counter. Sequential consistency of the
// two atomics guarantees that either this operation observes closed (and
// backs out without touching a backend) or Close observes the reference
// (and waits for release before tearing the backends down). Never blocks.
func (r *Retriever) acquire(op string) error {
	r.refs.Add(1)
	if r.closed.Load() {
		r.refs.Add(-1)
		return pnerr.Closed(op)
	}
	return nil
}

// release drops a reference taken by acquire.
func (r *Retriever) release() { r.refs.Add(-1) }

// Flush writes a current snapshot of every Disk shard whose segment grew
// since its last one (a no-op for Memory), so the next Open bulk-loads
// instead of replaying; every write is already durable when its call
// returns. It also returns the first delete or compaction error parked
// since the last Flush. Searches keep serving throughout.
//
// A shard whose dead-record fraction has reached DefaultCompactionRatio is
// handed to the compactor goroutine and Flush waits for the rewrite without
// holding any shard lock — writers and searches proceed while Flush
// blocks, and Flush's post-conditions (compacted segment, current
// snapshot) hold when it returns.
func (r *Retriever) Flush() error {
	if err := r.acquire("retriever: flush"); err != nil {
		return err
	}
	defer r.release()
	return r.flush()
}

// flush is Flush's body without the lifecycle reference, so Close can run
// it after draining references but before stopping the compactor. The
// compactor is running for the whole call — it stops only in Close, after
// flush returns — so every wait below ends in a committed or failed
// rewrite.
//
// A shard that waited is flushed again: that pass surfaces a failed
// rewrite, writes the snapshot the commit left stale, and — when the
// rewrite had pinned the segment before later tombstones landed, leaving
// the shard due again — schedules another round.
func (r *Retriever) flush() error {
	for shards := r.shards; len(shards) > 0; {
		var waited []*shard
		var waits []<-chan struct{}
		for _, s := range shards {
			if s.log == nil {
				continue
			}
			s.mu.Lock()
			ch, err := s.log.flushLocked()
			s.mu.Unlock()
			if err != nil {
				return err
			}
			if ch != nil {
				waited = append(waited, s)
				waits = append(waits, ch)
			}
		}
		for _, ch := range waits {
			<-ch
		}
		shards = waited
	}
	return nil
}

// Close flushes and releases every shard, then drops the index-directory
// lock. Calls after the first return a typed pnerr.ErrClosed, as do all
// queries and ingests against a closed retriever (Disk-backed shards have
// closed their segment files). In order, Close:
//
//  1. flips closed and drains the operations in flight — every acquired
//     reference, including fan-out goroutines a canceled Search abandoned —
//     so no ingest or flush is still writing a segment file when the
//     steps below sync and close it;
//  2. runs Flush's body, so a shard whose compaction is due is rewritten by
//     the still-running compactor, exactly as a Flush would;
//  3. stops the compactor;
//  4. closes each Disk shard's log (its segment file).
//
// An error from step 2 is Close's first error, but every shard is still
// closed and the directory lock released.
func (r *Retriever) Close() error {
	if r.closed.Swap(true) {
		return pnerr.Closed("retriever: close")
	}
	// New operations observe closed and back out; the wait is bounded by
	// the longest in-flight ingest chunk, query or Flush.
	for r.refs.Load() != 0 {
		time.Sleep(50 * time.Microsecond)
	}
	first := r.flush()
	if c := r.compactor; c != nil {
		close(c.done)
		<-c.stopped
	}
	for _, s := range r.shards {
		if s.log == nil {
			continue
		}
		s.mu.Lock()
		err := s.log.Close()
		s.mu.Unlock()
		if err != nil && first == nil {
			first = err
		}
	}
	if err := r.lock.release(); err != nil && first == nil {
		first = err
	}
	return first
}

// Fsyncs returns the cumulative number of segment-file fsyncs across all
// disk shards (0 for the Memory backend), reported by Service.Stats and
// the server's /metrics. A write call adds one per shard it appended to,
// whatever its batch size; Flush and Close sync every shard again.
func (r *Retriever) Fsyncs() uint64 {
	var n uint64
	for _, s := range r.shards {
		s.mu.Lock()
		if s.log != nil {
			n += s.log.fsyncs
		}
		s.mu.Unlock()
	}
	return n
}

// Version returns the mutation counter: it increases on every successful
// ingest or delete, so equal versions imply identical index contents.
func (r *Retriever) Version() uint64 { return r.version.Load() }

// ArenaBytes returns the total bytes held by the float32 vector arenas
// and by the int8 quantized arenas (including their per-vector scale,
// offset and sum arrays) across all shards; their ratio is the memory
// cost of walking int8 codes. The referee in benchmark/ reads the float32 total as
// retriever.arena_mb.
func (r *Retriever) ArenaBytes() (float32Bytes, int8Bytes int64) {
	for _, s := range r.shards {
		f, q := s.mem.vec.ArenaBytes()
		float32Bytes += int64(f)
		int8Bytes += int64(q)
	}
	return float32Bytes, int8Bytes
}

// shardIndex routes a document ID to its shard slot by FNV-1a hash. Every
// routing decision — ingest, lookup, delete — must go through here so the
// partitions can never diverge.
func (r *Retriever) shardIndex(id string) int {
	if len(r.shards) == 1 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(id))
	return int(h.Sum32() % uint32(len(r.shards)))
}

func (r *Retriever) shardFor(id string) *shard {
	return r.shards[r.shardIndex(id)]
}

// IndexTables bulk-ingests a corpus of tables: canonical documents are
// built and embedded with the worker pool, then all shards are written
// concurrently. This is the fast path Seeker assembly and the CLIs use.
// Cancellation propagates into the embedding pool and the per-shard
// writers: un-started work is abandoned and ctx.Err() is returned (already
// inserted documents remain — bulk ingest is not transactional).
func (r *Retriever) IndexTables(ctx context.Context, ts []*table.Table) error {
	ds := make([]docs.Document, len(ts))
	for i, t := range ts {
		ds[i] = docs.TableDocument(t)
	}
	return r.IndexDocuments(ctx, ds)
}

// IndexDocuments adds (or replaces) arbitrary documents in the hybrid
// index; it is the one write path, and a slice of one is the
// single-document form. The same indexer serves the Document Database
// (§3.3: "uses Pneuma-Retriever's indexer to store domain knowledge").
// Embeddings are computed with the configured worker pool, then each
// shard is populated by its own goroutine. Documents are sorted by ID first, so every shard sees its
// partition in the same order on every ingest of the same corpus — the
// resulting HNSW graphs, and therefore search results, are deterministic
// regardless of input permutation or goroutine scheduling. On the Disk
// backend the call returns only after every shard it appended to has
// fsynced its segment, once per shard, so a document is durable when its
// call returns; a sync error is returned. A canceled ctx abandons
// un-started embedding and insertion work and returns a typed
// pnerr.ErrCanceled; documents already inserted stay in the index, and on
// disk.
func (r *Retriever) IndexDocuments(ctx context.Context, ds []docs.Document) error {
	if err := r.acquire("retriever: index"); err != nil {
		return err
	}
	defer r.release()
	if len(ds) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return pnerr.Canceled("retriever: index", err)
	}
	sorted := make([]docs.Document, len(ds))
	copy(sorted, ds)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })

	texts := make([]string, len(sorted))
	for i, d := range sorted {
		texts[i] = d.Content
	}
	vecs, err := r.emb.EmbedBatch(ctx, texts, r.workers)
	if err != nil {
		return pnerr.Canceled("retriever: index", err)
	}

	// Partition (in sorted order) so each shard goroutine inserts its
	// documents sequentially under its own lock.
	parts := make([][]int, len(r.shards))
	for i, d := range sorted {
		si := r.shardIndex(d.ID)
		parts[si] = append(parts[si], i)
	}

	errs := make([]error, len(r.shards))
	var wg sync.WaitGroup
	for si, part := range parts {
		if len(part) == 0 {
			continue
		}
		wg.Add(1)
		go func(si int, part []int) {
			defer wg.Done()
			s := r.shards[si]
			s.mu.Lock()
			defer s.mu.Unlock()
			// Feed the shard in ingestBatchSize chunks: each chunk goes
			// through indexBatch (one copy-on-write clone of the published
			// views for the whole chunk) and publishes before the next, so
			// cancellation lands between chunks and concurrent searches see
			// the corpus appear progressively instead of all at once.
			bds := make([]docs.Document, 0, ingestBatchSize)
			bvecs := make([][]float32, 0, ingestBatchSize)
			var err error
			start := 0
			for ; start < len(part) && err == nil; start += ingestBatchSize {
				if cerr := ctx.Err(); cerr != nil {
					err = pnerr.Canceled("retriever: index", cerr)
					break
				}
				end := min(start+ingestBatchSize, len(part))
				bds, bvecs = bds[:0], bvecs[:0]
				for _, i := range part[start:end] {
					bds = append(bds, sorted[i])
					bvecs = append(bvecs, vecs[i])
				}
				err = s.indexBatch(bds, bvecs)
			}
			// One fsync makes every chunk the loop appended durable, also
			// when a cancellation or a failed chunk cut it short (start > 0:
			// some chunk went in). A sync error behind an earlier error is
			// parked for Flush/Close.
			if s.log != nil && start > 0 {
				if serr := s.log.syncSegment(); err == nil {
					err = serr
				} else {
					s.log.park(serr)
				}
			}
			errs[si] = err
		}(si, part)
	}
	wg.Wait()
	r.version.Add(1)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// DeleteDocuments removes a batch of documents and returns how many of
// the IDs were present (an ID listed twice counts once). Shards are
// written concurrently, each through its deleteBatch (one copy-on-write
// clone of the published views per shard for the whole batch); searches
// keep serving against their pinned views throughout. The mutation
// counter advances once for the whole batch when anything was removed.
//
// On the Disk backend every shard that removed a document appends its
// tombstones and fsyncs its segment before the call returns. The call
// reports only a count, so a failed append or sync is parked on the shard
// and returned by the next Flush or Close.
func (r *Retriever) DeleteDocuments(ids []string) int {
	if r.acquire("retriever: delete") != nil {
		return 0
	}
	defer r.release()
	if len(ids) == 0 {
		return 0
	}
	parts := make([][]string, len(r.shards))
	for _, id := range ids {
		si := r.shardIndex(id)
		parts[si] = append(parts[si], id)
	}
	var removed atomic.Int64
	var wg sync.WaitGroup
	for si, part := range parts {
		if len(part) == 0 {
			continue
		}
		wg.Add(1)
		go func(s *shard, part []string) {
			defer wg.Done()
			s.mu.Lock()
			defer s.mu.Unlock()
			removed.Add(int64(s.deleteBatch(part)))
		}(r.shards[si], part)
	}
	wg.Wait()
	n := int(removed.Load())
	if n > 0 {
		r.version.Add(1)
	}
	return n
}

// Len returns the number of indexed documents across all shards. Lock-free:
// each shard keeps an atomic live-document counter.
func (r *Retriever) Len() int {
	n := 0
	for _, s := range r.shards {
		n += s.mem.Len()
	}
	return n
}

// Document returns the stored document by ID. Lock-free: the document
// store is a sync.Map, so lookups never wait on an in-flight ingest.
func (r *Retriever) Document(id string) (docs.Document, bool) {
	return r.shardFor(id).mem.Document(id)
}

// shardHits is one shard's raw candidates for a query.
type shardHits struct {
	vec []hnsw.Result
	lex []bm25.Result
}

// scored is one fused candidate during global re-ranking.
type scored struct {
	id    string
	score float64
}

// searchScratch is the reusable per-query working state of Retriever.Search:
// the per-shard hit table, the merged candidate lists, the RRF fusion map
// and the ranked buffer. Instances cycle through Retriever.scratch; the
// sync.Pool contract applies (GC may drop pooled instances, so only
// steady-state queries are allocation-free), and nothing handed back to the
// caller may alias scratch memory.
type searchScratch struct {
	hits   []shardHits
	errs   []error
	vecRes []hnsw.Result
	lexRes []bm25.Result
	fused  map[string]float64
	ranked []scored
}

// begin readies the scratch for a query fanning out to n shards.
func (s *searchScratch) begin(n int) {
	if cap(s.hits) < n {
		s.hits = make([]shardHits, n)
		s.errs = make([]error, n)
	}
	s.hits = s.hits[:n]
	s.errs = s.errs[:n]
	for i := range s.errs {
		s.errs[i] = nil
	}
	s.vecRes = s.vecRes[:0]
	s.lexRes = s.lexRes[:0]
	s.ranked = s.ranked[:0]
	if s.fused == nil {
		s.fused = make(map[string]float64)
	} else {
		clear(s.fused)
	}
}

// queryShard collects one shard's candidates for a query. No lock: each
// half pins the immutable view current at call time, so the query never
// blocks a writer and never waits on one — the tentpole contract of live
// ingest. The caller must hold a lifecycle reference (acquire) so the
// shard cannot be closed mid-query.
func (r *Retriever) queryShard(s *shard, qvec []float32, query string, fetch int) (shardHits, error) {
	if s.park != nil {
		s.park()
	}
	var h shardHits
	if r.mode != ModeBM25Only {
		vr, err := s.mem.vec.Search(qvec, fetch)
		if err != nil {
			return shardHits{}, err
		}
		h.vec = vr
	}
	if r.mode != ModeVectorOnly {
		h.lex = s.mem.lex.Search(query, fetch)
	}
	return h, nil
}

// Search returns the top-k documents for the query under the configured
// mode. Scores are RRF scores for hybrid mode, raw scores otherwise. The
// query fans out to all shards concurrently; per-shard candidate lists are
// merged by score with ties broken by document ID, so results are
// deterministic for a fixed index.
//
// Cancellation: a ctx that is already done returns a typed
// pnerr.ErrCanceled immediately; a ctx canceled mid-fan-out abandons every
// shard whose query has not started, stops waiting for in-flight shards,
// and returns promptly. Every multi-shard query takes this one fan-out
// (a completion channel and a waiter goroutine per call), cancellable ctx
// or not; single-shard indexes run inline.
func (r *Retriever) Search(ctx context.Context, query string, k int) ([]docs.Document, error) {
	if err := r.acquire("retriever: search"); err != nil {
		return nil, err
	}
	defer r.release()
	if err := ctx.Err(); err != nil {
		return nil, pnerr.Canceled("retriever: search", err)
	}
	if k <= 0 {
		return nil, nil
	}
	// No query returns more documents than the index holds, and k sizes
	// the over-fetch below, so an absurd k must not reach it.
	k = min(k, r.Len())

	// Over-fetch each side so fusion has enough candidates. Each shard
	// over-fetches the full budget: the global top-fetch is then always a
	// subset of the union of per-shard top-fetch lists.
	fetch := k * 3
	if fetch < 10 {
		fetch = 10
	}

	var qvec []float32
	if r.mode != ModeBM25Only {
		qvec = r.emb.Embed(query)
	}

	sc, _ := r.scratch.Get().(*searchScratch)
	if sc == nil {
		sc = &searchScratch{}
	}
	// The scratch returns to the pool only on paths where no fan-out
	// goroutine can still be writing into it; the canceled path abandons
	// it to the GC instead (see below).
	reuse := true
	defer func() {
		if reuse {
			r.scratch.Put(sc)
		}
	}()
	sc.begin(len(r.shards))

	if len(r.shards) == 1 {
		// Single-shard indexes (docdb, websearch, ablation baselines) run
		// inline: a goroutine + WaitGroup per query buys nothing when
		// there is no fan-out to overlap.
		h, err := r.queryShard(r.shards[0], qvec, query, fetch)
		if err != nil {
			return nil, err
		}
		sc.hits[0] = h
	} else {
		// Each shard goroutine re-checks the context before touching its
		// backend, so work that has not started when cancellation lands is
		// abandoned; the coordinator stops waiting the moment the context
		// fires. A non-cancellable ctx has a nil Done channel, whose select
		// case never fires: it waits for the fan-out.
		var wg sync.WaitGroup
		for si, s := range r.shards {
			wg.Add(1)
			// Each goroutine carries its own lifecycle reference: when the
			// context fires, Search returns while these may still be
			// querying, and Close must keep the backends alive until the
			// last of them drains.
			r.refs.Add(1)
			go func(si int, s *shard) {
				defer wg.Done()
				defer r.release()
				if err := ctx.Err(); err != nil {
					sc.errs[si] = err
					return
				}
				sc.hits[si], sc.errs[si] = r.queryShard(s, qvec, query, fetch)
			}(si, s)
		}
		fanoutDone := make(chan struct{})
		go func() {
			wg.Wait()
			close(fanoutDone)
		}()
		select {
		case <-fanoutDone:
		case <-ctx.Done():
			// In-flight shard goroutines may still write into the scratch;
			// hand it to the GC rather than back to the pool.
			reuse = false
			return nil, pnerr.Canceled("retriever: search", ctx.Err())
		}
		for _, err := range sc.errs {
			if err != nil {
				if ctx.Err() != nil {
					return nil, pnerr.Canceled("retriever: search", ctx.Err())
				}
				return nil, err
			}
		}
	}

	vecRes := sc.vecRes
	lexRes := sc.lexRes
	for _, h := range sc.hits {
		vecRes = append(vecRes, h.vec...)
		lexRes = append(lexRes, h.lex...)
	}
	// Re-rank the merged candidate lists globally. BM25 scores are
	// computed against the shared corpus-wide statistics object, so
	// per-shard scores are directly comparable and equal to what a single
	// monolithic index would assign. The comparators are total orders
	// (document IDs are unique across shards), so the unstable sort is
	// still deterministic.
	slices.SortFunc(vecRes, func(a, b hnsw.Result) int {
		if a.Score != b.Score {
			if a.Score > b.Score {
				return -1
			}
			return 1
		}
		return strings.Compare(a.ID, b.ID)
	})
	slices.SortFunc(lexRes, func(a, b bm25.Result) int {
		if a.Score != b.Score {
			if a.Score > b.Score {
				return -1
			}
			return 1
		}
		return strings.Compare(a.ID, b.ID)
	})
	sc.vecRes = vecRes
	sc.lexRes = lexRes
	if len(vecRes) > fetch {
		vecRes = vecRes[:fetch]
	}
	if len(lexRes) > fetch {
		lexRes = lexRes[:fetch]
	}

	ranked := sc.ranked
	switch r.mode {
	case ModeVectorOnly:
		for _, h := range vecRes {
			ranked = append(ranked, scored{h.ID, float64(h.Score)})
		}
	case ModeBM25Only:
		for _, h := range lexRes {
			ranked = append(ranked, scored{h.ID, h.Score})
		}
	default:
		// Reciprocal-rank fusion across both lists.
		fused := sc.fused
		for rank, h := range vecRes {
			fused[h.ID] += 1.0 / (rrfK + float64(rank+1))
		}
		for rank, h := range lexRes {
			fused[h.ID] += 1.0 / (rrfK + float64(rank+1))
		}
		for id, s := range fused {
			ranked = append(ranked, scored{id, s})
		}
	}
	slices.SortFunc(ranked, func(a, b scored) int {
		if a.score != b.score {
			if a.score > b.score {
				return -1
			}
			return 1
		}
		return strings.Compare(a.id, b.id)
	})
	sc.ranked = ranked
	if len(ranked) > k {
		ranked = ranked[:k]
	}
	out := make([]docs.Document, 0, len(ranked))
	for _, s := range ranked {
		d, ok := r.Document(s.id)
		if !ok {
			continue
		}
		d.Score = s.score
		out = append(out, d)
	}
	return out, nil
}
