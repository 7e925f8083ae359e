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
// (Index, Delete, the batch variants, Flush, Close) are not internally
// serialized against each other: the Retriever runs them under one writer
// mutex per shard. Implementations must be deterministic: indexing the
// same (document, vector) sequence must yield a backend that answers
// SearchVector and SearchLexical identically across implementations and
// across reopens.
type ShardBackend interface {
	// Index adds (or replaces) one embedded document.
	Index(d docs.Document, vec []float32) error
	// IndexBatch adds (or replaces) a batch of embedded documents,
	// equivalent to calling Index on each pair in order but amortizing
	// the copy-on-write of the published read views across the batch.
	IndexBatch(ds []docs.Document, vecs [][]float32) error
	// Delete removes a document; it reports whether the ID was present.
	Delete(id string) bool
	// DeleteBatch removes a batch of documents and returns how many of
	// the IDs were present.
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
	ef    int
	quant bool
}

// newMemoryBackend creates an empty in-memory shard. seed fixes the HNSW
// level generator so equal ingest sequences build equal graphs; st is the
// retriever-wide BM25 statistics object shared by every shard (nil scores
// against shard-local statistics); ef is the HNSW query beam width (0
// selects hnsw.DefaultEfSearch); quant enables the int8 quantized HNSW
// query path (the graph itself is identical either way).
func newMemoryBackend(dim int, seed int64, st *bm25.Stats, ef int, quant bool) *memoryBackend {
	return &memoryBackend{
		vec:   hnsw.New(dim, hnsw.Config{Seed: seed, EfSearch: ef, Quantize: quant}),
		lex:   bm25.NewWithStats(bm25.Params{}, st),
		dim:   dim,
		seed:  seed,
		ef:    ef,
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

// compact rebuilds the index halves without their tombstones, in place:
// the HNSW graph is reconstructed by re-inserting the live vectors in
// their original relative order under a freshly seeded level generator —
// exactly the graph a replay of a compacted segment log builds — and the
// BM25 index drops its dead document slots (the shared Stats object is
// untouched; live contributions are identical before and after). Both
// rebuilds publish via atomic view swap, so searches in flight keep their
// pinned pre-compaction view and never observe a half-built shard. The
// document map is already live-only.
func (m *memoryBackend) compact() error {
	m.vec.Compact()
	m.lex.Compact()
	return nil
}

// Index adds the embedded document to both halves and the document map.
// The document store is written first: any ID visible through a published
// index view must resolve in the store, so a concurrent reader never
// surfaces a hit it cannot materialize.
func (m *memoryBackend) Index(d docs.Document, vec []float32) error {
	if len(vec) != m.dim {
		return fmt.Errorf("hnsw: vector for %q has dim %d, index wants %d", d.ID, len(vec), m.dim)
	}
	if _, existed := m.byID.Swap(d.ID, d); !existed {
		m.live.Add(1)
	}
	m.lex.Add(d.ID, d.Content)
	return m.vec.Add(d.ID, vec)
}

// IndexBatch adds the batch through the halves' batch entry points, which
// clone the published copy-on-write arrays once for the whole batch.
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

// Delete removes the document from both halves, index halves first so a
// concurrent reader cannot surface a hit whose document is already gone.
func (m *memoryBackend) Delete(id string) bool {
	if _, ok := m.byID.Load(id); !ok {
		return false
	}
	m.vec.Delete(id)
	m.lex.Delete(id)
	m.byID.Delete(id)
	m.live.Add(-1)
	return true
}

// DeleteBatch tombstones the batch through the halves' batch entry points.
func (m *memoryBackend) DeleteBatch(ids []string) int {
	present := ids[:0:0]
	for _, id := range ids {
		if _, ok := m.byID.Load(id); ok {
			present = append(present, id)
		}
	}
	if len(present) == 0 {
		return 0
	}
	m.vec.DeleteBatch(present)
	m.lex.DeleteBatch(present)
	for _, id := range present {
		m.byID.Delete(id)
	}
	m.live.Add(int64(-len(present)))
	return len(present)
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
