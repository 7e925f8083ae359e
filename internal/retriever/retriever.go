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
// the retrieval ablation in DESIGN.md §5.4.
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

// DefaultCompactionRatio is the dead-record fraction that triggers a
// segment compaction rewrite at Flush/Close when WithCompactionRatio is
// unset.
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

// shard is one hash partition of the hybrid index: a storage backend plus
// the mutex that serializes its writers. Readers do not take it — the
// backend's read methods run against immutable views published by atomic
// pointer swap (see ShardBackend), so a search never blocks on an ingest
// and vice versa. A reader may observe one half a publish ahead of the
// other mid-batch; the writer publishes the document store first, then the
// lexical half, then the vector half, so every ID a view surfaces is
// materializable, and at any quiesce point the halves agree exactly.
type shard struct {
	mu sync.Mutex
	be ShardBackend
}

// ingestBatchSize is the per-shard chunk size bulk ingest feeds to
// IndexBatch: large enough to amortize the copy-on-write of the published
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
	ef        int
	// Disk-backend policy knobs (see WithSyncBytes, WithSyncInterval,
	// WithCompactionRatio, WithMmap); ignored by the Memory backend.
	syncBytes    int64
	syncInterval time.Duration
	compactRatio float64
	useMmap      bool
	// quantize enables the int8 speed tier on every shard's HNSW index
	// (see WithQuantize); honoured by both backends.
	quantize bool
	// gc is the group-commit coordinator (nil when no sync policy is
	// configured); its flusher goroutine runs from Open to Close.
	gc *groupCommit
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
	// the backends, so no reader can be traversing an arena when a
	// mmap-backed shard unmaps its snapshot. Readers never block on this —
	// acquire is an atomic increment plus a closed re-check.
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

// WithEf sets the HNSW query beam width ef for every shard (default
// hnsw.DefaultEfSearch). Larger values trade latency for recall; the knob
// only affects queries, so an existing disk index can be reopened with a
// different ef. Values < 1 are ignored.
func WithEf(ef int) Option {
	return func(r *Retriever) {
		if ef >= 1 {
			r.ef = ef
		}
	}
}

// WithSyncBytes enables group-commit durability triggered by pending
// payload volume: once n bytes of records have been appended to a shard
// since its last fsync, the flusher syncs immediately instead of waiting
// out the latency bound. This shrinks the crash-loss window (including
// the resurrected-tombstone window: an unsynced delete record lost in a
// crash brings the document back on reopen) without paying one fsync per
// record — concurrent writers share each disk barrier. 1 trips on every
// record. 0, the default, leaves the trigger unset; values < 0 are
// ignored. The Memory backend ignores the knob.
func WithSyncBytes(n int64) Option {
	return func(r *Retriever) {
		if n >= 0 {
			r.syncBytes = n
		}
	}
}

// WithSyncInterval bounds the time an acknowledged write can remain
// unsynced: the group-commit flusher fsyncs every shard with pending
// records at most d after the first of them was appended, batching
// everything that arrived in the window into one fsync per shard. Setting
// either sync knob (this one or WithSyncBytes) activates the flusher; the
// interval defaults to DefaultSyncInterval when WithSyncBytes is set
// without an explicit bound. 0, the default, leaves the bound unset;
// values < 0 are ignored. The Memory backend ignores the knob.
func WithSyncInterval(d time.Duration) Option {
	return func(r *Retriever) {
		if d >= 0 {
			r.syncInterval = d
		}
	}
}

// WithQuantize toggles the int8 speed tier (default off). When on, every
// shard's HNSW index keeps a scalar-quantized int8 copy of the vector
// arena and runs graph traversal against it — 4× less memory bandwidth
// per distance — then rescores the top candidates with exact float32
// arithmetic, so returned scores and ordering are computed at full
// precision. Graph construction always uses float32: the graph is
// identical with the knob on or off, and an existing disk index can be
// reopened with a different setting. See pneuma/internal/hnsw for the
// quantization scheme and accuracy characteristics.
func WithQuantize(on bool) Option {
	return func(r *Retriever) { r.quantize = on }
}

// WithMmap makes the Disk backend memory-map snapshot files on Open
// instead of reading them (default off). The shard's vector arenas and
// document strings then alias the mapping zero-copy: cold start skips the
// read-and-decode pass, pages fault in on demand, and co-located
// processes share the page cache. The whole-file checksum is still
// verified up front, so corruption degrades to a segment replay exactly
// as in the ReadFile path. Lifetime caveat: because results can alias the
// mapping, documents returned by a mmap-backed retriever must not be
// retained after Close. Ignored on platforms without mmap support and by
// the Memory backend.
func WithMmap(on bool) Option {
	return func(r *Retriever) { r.useMmap = on }
}

// WithCompactionRatio sets the dead-record fraction (superseded adds,
// deleted documents and their tombstone records, as a share of all
// segment records) beyond which Flush/Close rewrites a shard's segment to
// its live records and refreshes the snapshot. 0 selects
// DefaultCompactionRatio; values in (0, 1] set the threshold; negative
// values disable compaction entirely. Compaction rebuilds the shard's
// HNSW graph without the tombstoned nodes — afterwards results are those
// of a fresh index over the surviving corpus. The Memory backend ignores
// the knob.
func WithCompactionRatio(ratio float64) Option {
	return func(r *Retriever) { r.compactRatio = ratio }
}

// Open creates a retriever, loading any existing index when the Disk
// backend points at a directory with persisted segments. This is the
// error-returning constructor; New is the panicking convenience wrapper
// for configurations that cannot fail (the Memory backend).
func Open(opts ...Option) (*Retriever, error) {
	r := &Retriever{
		emb:       embed.New(),
		mode:      ModeHybrid,
		workers:   runtime.GOMAXPROCS(0),
		numShards: DefaultShards(),
		backend:   Memory,
		stats:     bm25.NewStats(),
	}
	for _, o := range opts {
		o(r)
	}
	switch r.backend {
	case Memory:
		r.shards = make([]*shard, r.numShards)
		for i := range r.shards {
			r.shards[i] = &shard{be: newMemoryBackend(r.emb.Dim(), hnswSeed+int64(i), r.stats, r.ef, r.quantize)}
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
		r.gc = newGroupCommit(r.syncBytes, r.syncInterval)
		knobs := diskKnobs{
			compactRatio: r.compactRatio,
			quantize:     r.quantize,
			mmap:         r.useMmap,
			gc:           r.gc,
		}
		switch {
		case knobs.compactRatio == 0:
			knobs.compactRatio = DefaultCompactionRatio
		case knobs.compactRatio < 0:
			// Disabled: the dead fraction can never exceed 1.
			knobs.compactRatio = 2
		}
		// Shards load concurrently: snapshot loads and replays are
		// independent per shard, and the shared BM25 statistics updates
		// are commutative, so the built state is identical to a
		// sequential open regardless of goroutine interleaving. Per-shard
		// durations and the fan-out wall clock are recorded so tests (and
		// curious operators) can verify the parallelism actually pays:
		// openShardSum is what a sequential open would have cost.
		bes := make([]ShardBackend, r.numShards)
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
				bes[i], errs[i] = openDiskBackend(seg, snap, r.emb.Dim(), hnswSeed+int64(i), r.stats, r.ef, knobs)
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
			for _, be := range bes {
				if be != nil {
					be.Close()
				}
			}
			lock.release()
			if os.IsNotExist(err) || os.IsPermission(err) {
				return nil, err
			}
			return nil, pnerr.Corrupt("retriever: open", err)
		}
		r.shards = make([]*shard, r.numShards)
		for i, be := range bes {
			r.shards[i] = &shard{be: be}
		}
	default:
		return nil, fmt.Errorf("retriever: unknown backend %q", r.backend)
	}
	if r.gc != nil {
		// The flusher starts only once every shard opened — error paths
		// above return before any goroutine exists to leak.
		go r.flusher()
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

// Ef returns the effective HNSW query beam width.
func (r *Retriever) Ef() int {
	if r.ef > 0 {
		return r.ef
	}
	return hnsw.DefaultEfSearch
}

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

// Flush makes all shards durable (fsync of every segment file for the Disk
// backend; a no-op for Memory). Searches keep serving throughout: any
// compaction a Flush triggers publishes its rebuilt state by atomic view
// swap, and in-flight queries finish on their pinned pre-flush views.
//
// A shard whose dead-record fraction crosses the threshold is handed to the flusher goroutine and
// Flush waits for the rewrite without holding any shard lock — writers
// and searches proceed while Flush blocks, and Flush's post-conditions
// (compacted segment, current snapshot) still hold when it returns. If
// Close races the wait, the remaining work completes inline there.
func (r *Retriever) Flush() error {
	if err := r.acquire("retriever: flush"); err != nil {
		return err
	}
	defer r.release()
	var waits []<-chan struct{}
	for _, s := range r.shards {
		s.mu.Lock()
		var ch <-chan struct{}
		var err error
		if db, ok := s.be.(*diskBackend); ok {
			ch, err = db.flushLocked()
		} else {
			err = s.be.Flush()
		}
		s.mu.Unlock()
		if err != nil {
			return err
		}
		if ch != nil {
			waits = append(waits, ch)
		}
	}
	if len(waits) == 0 {
		return nil
	}
	for _, ch := range waits {
		select {
		case <-ch:
		case <-r.gc.stopped:
			// Close stopped the flusher mid-wait; its inline Flush owns
			// whatever the background rewrite left undone.
		}
	}
	var first error
	for _, s := range r.shards {
		s.mu.Lock()
		if db, ok := s.be.(*diskBackend); ok {
			if err := db.finishFlushLocked(); err != nil && first == nil {
				first = err
			}
		}
		s.mu.Unlock()
	}
	return first
}

// Close flushes and releases every shard, then drops the index-directory
// lock. Calls after the first return a typed pnerr.ErrClosed, as do all
// queries and ingests against a closed retriever (Disk-backed shards have
// closed their segment files). Operations in flight when Close lands are
// drained first: Close waits for every acquired reference — including
// fan-out goroutines a canceled Search abandoned — before closing a
// backend, so no search can be walking an arena when a mmap-backed shard
// releases its snapshot mapping.
func (r *Retriever) Close() error {
	if r.closed.Swap(true) {
		return pnerr.Closed("retriever: close")
	}
	if r.gc != nil {
		// Stop the group-commit flusher first: it performs one final sweep
		// over the shards on its way out, and waiting for it here means no
		// goroutine can touch a backend after it is closed below.
		close(r.gc.done)
		<-r.gc.stopped
	}
	// Drain in-flight operations. New ones observe closed and back out;
	// the wait is bounded by the longest in-flight ingest chunk or query.
	for r.refs.Load() != 0 {
		time.Sleep(50 * time.Microsecond)
	}
	var first error
	for _, s := range r.shards {
		s.mu.Lock()
		err := s.be.Close()
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

// Version returns the mutation counter: it increases on every successful
// ingest or delete, so equal versions imply identical index contents.
func (r *Retriever) Version() uint64 { return r.version.Load() }

// ArenaBytes returns the total bytes held by the float32 vector arenas
// and by the int8 quantized arenas (including their per-vector scale,
// offset and sum arrays) across all shards. The int8 total is 0 unless
// WithQuantize is on, where their ratio is the memory cost of the speed
// tier. The referee in benchmark/ reads the float32 total as
// retriever.arena_mb.
func (r *Retriever) ArenaBytes() (float32Bytes, int8Bytes int64) {
	for _, s := range r.shards {
		if mb, ok := s.be.(interface{ arenaBytes() (int, int) }); ok {
			f, q := mb.arenaBytes()
			float32Bytes += int64(f)
			int8Bytes += int64(q)
		}
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

// IndexTable adds a table to the index via its canonical document.
func (r *Retriever) IndexTable(ctx context.Context, t *table.Table) error {
	return r.IndexDocument(ctx, docs.TableDocument(t))
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

// IndexDocument adds an arbitrary document to the hybrid index. The same
// indexer serves the Document Database (§3.3: "uses Pneuma-Retriever's
// indexer to store domain knowledge").
func (r *Retriever) IndexDocument(ctx context.Context, d docs.Document) error {
	if err := r.acquire("retriever: index"); err != nil {
		return err
	}
	defer r.release()
	if err := ctx.Err(); err != nil {
		return pnerr.Canceled("retriever: index", err)
	}
	vec := r.emb.Embed(d.Content)
	s := r.shardFor(d.ID)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.be.Index(d, vec); err != nil {
		return err
	}
	r.version.Add(1)
	return nil
}

// IndexDocuments bulk-ingests documents. Embeddings are computed with the
// configured worker pool, then each shard is populated by its own
// goroutine. Documents are sorted by ID first, so every shard sees its
// partition in the same order on every ingest of the same corpus — the
// resulting HNSW graphs, and therefore search results, are deterministic
// regardless of input permutation or goroutine scheduling. A canceled ctx
// abandons un-started embedding and insertion work and returns a typed
// pnerr.ErrCanceled; documents already inserted stay in the index.
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
			// through IndexBatch (one copy-on-write clone of the published
			// views for the whole chunk) and publishes before the next, so
			// cancellation lands between chunks and concurrent searches see
			// the corpus appear progressively instead of all at once.
			bds := make([]docs.Document, 0, ingestBatchSize)
			bvecs := make([][]float32, 0, ingestBatchSize)
			for start := 0; start < len(part); start += ingestBatchSize {
				if err := ctx.Err(); err != nil {
					errs[si] = pnerr.Canceled("retriever: index", err)
					return
				}
				end := start + ingestBatchSize
				if end > len(part) {
					end = len(part)
				}
				bds, bvecs = bds[:0], bvecs[:0]
				for _, i := range part[start:end] {
					bds = append(bds, sorted[i])
					bvecs = append(bvecs, vecs[i])
				}
				if err := s.be.IndexBatch(bds, bvecs); err != nil {
					errs[si] = err
					return
				}
			}
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

// Delete removes a document from both halves of its shard.
func (r *Retriever) Delete(id string) bool {
	if r.acquire("retriever: delete") != nil {
		return false
	}
	defer r.release()
	s := r.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.be.Delete(id) {
		return false
	}
	r.version.Add(1)
	return true
}

// DeleteDocuments removes a batch of documents and returns how many of
// the IDs were present. Shards are written concurrently, each through its
// backend's DeleteBatch (one copy-on-write clone of the published views
// per shard for the whole batch); searches keep serving against their
// pinned views throughout. The mutation counter advances once for the
// whole batch when anything was removed.
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
			removed.Add(int64(s.be.DeleteBatch(part)))
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
		n += s.be.Len()
	}
	return n
}

// Document returns the stored document by ID. Lock-free: the document
// store is a sync.Map, so lookups never wait on an in-flight ingest.
func (r *Retriever) Document(id string) (docs.Document, bool) {
	return r.shardFor(id).be.Document(id)
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
// backend cannot be closed mid-query.
func (r *Retriever) queryShard(s *shard, qvec []float32, query string, fetch int) (shardHits, error) {
	var h shardHits
	if r.mode != ModeBM25Only {
		vr, err := s.be.SearchVector(qvec, fetch)
		if err != nil {
			return shardHits{}, err
		}
		h.vec = vr
	}
	if r.mode != ModeVectorOnly {
		h.lex = s.be.SearchLexical(query, fetch)
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
