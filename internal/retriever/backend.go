package retriever

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pneuma/internal/bm25"
	"pneuma/internal/docs"
	"pneuma/internal/hnsw"
)

// Backend names a shard storage engine.
type Backend string

// The available shard backends.
const (
	// Memory keeps every shard fully in RAM (HNSW graph + BM25 inverted
	// index + document map). This is the default and the fastest option.
	Memory Backend = "memory"
	// Disk additionally persists every shard to an append-only segment
	// file; the in-memory posting/vector structures are rebuilt from the
	// segment log on Open, and Flush/Close make writes durable. Search
	// runs against the same in-memory structures as Memory, so results
	// and latency are identical — the segment log buys restartability,
	// not a different ranking.
	Disk Backend = "disk"
)

// ParseBackend converts a user-supplied string (CLI flag, config value)
// into a Backend. The empty string selects Memory.
func ParseBackend(s string) (Backend, error) {
	switch Backend(s) {
	case "", Memory:
		return Memory, nil
	case Disk:
		return Disk, nil
	default:
		return "", fmt.Errorf("retriever: unknown backend %q (want %q or %q)", s, Memory, Disk)
	}
}

// ShardBackend is the storage engine behind one shard of the hybrid index:
// it owns the vector and lexical halves plus the document store for one
// hash partition of the corpus. The read methods (Document, SearchVector,
// SearchLexical, Len) are safe to call concurrently with each other and
// with one mutator — the index halves publish immutable views through
// atomic pointers, and the document store is a sync.Map — but mutators
// (IndexBatch, DeleteBatch, Flush, Close) are not internally serialized
// against each other: the Retriever runs them under one writer mutex per
// shard. The two batch mutators are the only write path; a batch of one
// is the single-document form, and a batch of n leaves the backend
// exactly as n batches of one would (FuzzBatchSplit pins this).
// Implementations must be deterministic: indexing the same (document,
// vector) sequence must yield a backend that answers SearchVector and
// SearchLexical identically across implementations and across reopens.
type ShardBackend interface {
	// IndexBatch adds (or replaces) a batch of embedded documents in
	// order, amortizing the copy-on-write of the published read views
	// across the batch.
	IndexBatch(ds []docs.Document, vecs [][]float32) error
	// DeleteBatch removes a batch of documents and returns how many of
	// the IDs were present (an ID listed twice counts once).
	DeleteBatch(ids []string) int
	// Document returns the stored document by ID.
	Document(id string) (docs.Document, bool)
	// SearchVector returns the top-k nearest documents to the query
	// vector.
	SearchVector(query []float32, k int) ([]hnsw.Result, error)
	// SearchLexical returns the top-k BM25 hits for the query text.
	SearchLexical(query string, k int) []bm25.Result
	// Len returns the number of live documents in this shard.
	Len() int
	// Flush makes all writes since the last Flush durable. A no-op for
	// purely in-memory backends.
	Flush() error
	// Close flushes and releases any resources. The backend must not be
	// used afterwards.
	Close() error
}

// memoryBackend is the in-RAM shard: an HNSW graph, a BM25 inverted index
// and the document map. It is the Memory backend and the substrate the
// Disk backend replays its segment log into. Reads run lock-free against
// the index halves' published views and the sync.Map document store;
// mutators rely on the Retriever's per-shard writer mutex.
type memoryBackend struct {
	vec   *hnsw.Index
	lex   *bm25.Index
	byID  sync.Map // string → docs.Document
	live  atomic.Int64
	dim   int
	seed  int64
	quant bool
}

// newMemoryBackend creates an empty in-memory shard. seed fixes the HNSW
// level generator so equal ingest sequences build equal graphs; st is the
// retriever-wide BM25 statistics object shared by every shard (nil gives
// the shard a private one); quant enables the int8 quantized HNSW query
// path (the graph itself is identical either way).
func newMemoryBackend(dim int, seed int64, st *bm25.Stats, quant bool) *memoryBackend {
	return &memoryBackend{
		vec:   hnsw.New(dim, hnsw.Config{Seed: seed, Quantize: quant}),
		lex:   bm25.NewWithStats(bm25.Params{}, st),
		dim:   dim,
		seed:  seed,
		quant: quant,
	}
}

// setDocs replaces the document store wholesale (the snapshot-restore
// bulk load). Writer-side only, before the shard serves.
func (m *memoryBackend) setDocs(byID map[string]docs.Document) {
	m.byID = sync.Map{}
	for id, d := range byID {
		m.byID.Store(id, d)
	}
	m.live.Store(int64(len(byID)))
}

// arenaBytes reports the shard's HNSW vector-arena sizes (float32 bytes,
// quantized-side bytes) for the bench harness's memory accounting.
func (m *memoryBackend) arenaBytes() (int, int) { return m.vec.ArenaBytes() }

// IndexBatch adds the batch to both halves and the document map, through
// the halves' batch entry points, which clone the published copy-on-write
// arrays once for the whole batch. The document store is written first:
// any ID visible through a published index view must resolve in the store,
// so a concurrent reader never surfaces a hit it cannot materialize.
func (m *memoryBackend) IndexBatch(ds []docs.Document, vecs [][]float32) error {
	for i, vec := range vecs {
		if len(vec) != m.dim {
			return fmt.Errorf("hnsw: vector for %q has dim %d, index wants %d", ds[i].ID, len(vec), m.dim)
		}
	}
	ids := make([]string, len(ds))
	texts := make([]string, len(ds))
	for i, d := range ds {
		ids[i] = d.ID
		texts[i] = d.Content
		if _, existed := m.byID.Swap(d.ID, d); !existed {
			m.live.Add(1)
		}
	}
	m.lex.AddBatch(ids, texts)
	return m.vec.AddBatch(ids, vecs)
}

// DeleteBatch tombstones the batch and returns how many IDs were present.
func (m *memoryBackend) DeleteBatch(ids []string) int {
	return len(m.deleteBatch(ids))
}

// deleteBatch removes the present IDs through the halves' batch entry
// points, index halves first so a concurrent reader cannot surface a hit
// whose document is already gone, and returns the removed IDs in batch
// order, each once.
func (m *memoryBackend) deleteBatch(ids []string) []string {
	present := ids[:0:0]
	for _, id := range ids {
		if _, ok := m.byID.Load(id); ok {
			present = append(present, id)
		}
	}
	if len(present) == 0 {
		return nil
	}
	m.vec.DeleteBatch(present)
	m.lex.DeleteBatch(present)
	// Filtering in place drops an ID listed twice: only its first
	// LoadAndDelete finds it.
	removed := present[:0]
	for _, id := range present {
		if _, ok := m.byID.LoadAndDelete(id); ok {
			removed = append(removed, id)
		}
	}
	m.live.Add(int64(-len(removed)))
	return removed
}

// Document returns the stored document by ID.
func (m *memoryBackend) Document(id string) (docs.Document, bool) {
	v, ok := m.byID.Load(id)
	if !ok {
		return docs.Document{}, false
	}
	return v.(docs.Document), true
}

// SearchVector queries the HNSW half.
func (m *memoryBackend) SearchVector(query []float32, k int) ([]hnsw.Result, error) {
	return m.vec.Search(query, k)
}

// SearchLexical queries the BM25 half.
func (m *memoryBackend) SearchLexical(query string, k int) []bm25.Result {
	return m.lex.Search(query, k)
}

// Len returns the number of live documents.
func (m *memoryBackend) Len() int { return int(m.live.Load()) }

// Flush is a no-op: memory shards have no durable state.
func (m *memoryBackend) Flush() error { return nil }

// Close is a no-op: memory shards hold no external resources.
func (m *memoryBackend) Close() error { return nil }
