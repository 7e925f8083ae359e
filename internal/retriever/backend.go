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
	// file, which every write call fsyncs before it returns; the
	// in-memory posting/vector structures are rebuilt from the segment
	// log on Open, and Flush/Close snapshot them for a fast reopen. Search
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

// shard is one hash partition of the hybrid index: the in-memory index
// (mem), the segment log that persists it on the Disk backend (log, nil
// on Memory), and the mutex that serializes its writers. Readers do not
// take the mutex — mem's halves publish immutable views by atomic pointer
// swap and its document store is a sync.Map, so a search never blocks on
// an ingest and vice versa. A reader may observe one half a publish ahead
// of the other mid-batch; the writer publishes the document store first,
// then the lexical half, then the vector half, so every ID a view
// surfaces is materializable, and at any quiesce point the halves agree
// exactly.
//
// indexBatch and deleteBatch are the only write path: each writes mem
// first and then appends the same mutations to the log in the same order,
// so a replay of the log rebuilds mem exactly. A batch of one is the
// single-document form, and a batch of n leaves a shard exactly as n
// batches of one would (FuzzBatchSplit pins this, log included).
type shard struct {
	mu  sync.Mutex
	mem *memoryBackend
	log *diskBackend
	// park, when set, runs at the start of every query of this shard:
	// a test hook for holding a query mid-fan-out. Nil outside tests.
	park func()
}

// indexBatch adds (or replaces) a batch of embedded documents in order.
// Shard lock held.
func (s *shard) indexBatch(ds []docs.Document, vecs [][]float32) error {
	if err := s.mem.IndexBatch(ds, vecs); err != nil {
		return err
	}
	if s.log != nil {
		return s.log.logAdds(ds, vecs)
	}
	return nil
}

// deleteBatch removes a batch of documents and returns how many of the IDs
// were present (an ID listed twice counts once). Shard lock held.
func (s *shard) deleteBatch(ids []string) int {
	removed := s.mem.deleteBatch(ids)
	if s.log != nil {
		s.log.logDeletes(removed)
	}
	return len(removed)
}

// memoryBackend is the in-RAM shard index: an HNSW graph, a BM25 inverted
// index and the document map. Every shard has one; on the Disk backend it
// is what the segment log replays into. Reads run lock-free against the
// index halves' published views and the sync.Map document store; mutators
// rely on the shard's writer mutex.
type memoryBackend struct {
	vec  *hnsw.Index
	lex  *bm25.Index
	byID sync.Map // string → docs.Document
	live atomic.Int64
	dim  int
	seed int64
}

// newMemoryBackend creates an empty in-memory shard. seed fixes the HNSW
// level generator so equal ingest sequences build equal graphs; st is the
// retriever-wide BM25 statistics object shared by every shard (nil gives
// the shard a private one).
func newMemoryBackend(dim int, seed int64, st *bm25.Stats) *memoryBackend {
	return &memoryBackend{
		vec:  hnsw.New(dim, hnsw.Config{Seed: seed}),
		lex:  bm25.NewWithStats(bm25.Params{}, st),
		dim:  dim,
		seed: seed,
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

// Len returns the number of live documents.
func (m *memoryBackend) Len() int { return int(m.live.Load()) }
