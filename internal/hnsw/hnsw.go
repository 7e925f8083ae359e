package hnsw

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"pneuma/internal/vecmath"
)

// Construction and query parameters. They are fixed: every index the
// project builds uses these values, and persisted graphs depend on the
// construction pair.
const (
	// maxLinks is HNSW's M, the maximum number of bidirectional links per
	// node per layer (layer 0 allows 2·maxLinks).
	maxLinks = 16
	// efConstruction is the beam width used while inserting.
	efConstruction = 200
	// efSearch is the query beam width (widened to k when k is larger).
	efSearch = 64
)

// Config holds HNSW construction parameters.
type Config struct {
	// Seed seeds the level generator. Builds with equal seeds and insert
	// order produce identical graphs.
	Seed int64
}

// graph is one immutable published view of the index: everything the read
// path touches, frozen at a batch boundary. Readers pin a view with a
// single atomic load and never take a lock; writers build the next view in
// a private draft and publish it with one atomic pointer swap (see the
// package comment for the epoch lifecycle).
//
// Views share storage where sharing is safe: the append-only arrays (ids,
// vecs, norms, levels, the arenas) grow in place past the published
// length — readers never index beyond their own view's len, so tail
// writes cannot race. Arrays that are mutated *in place* by a batch — the
// tombstone flags and any adjacency list the batch rewires — are
// copy-on-write: the draft clones them before the first mutation, leaving
// every older view intact until its last reader drains and the GC retires
// it.
type graph struct {
	dim     int
	ids     []string  // external ID per node slot
	vecs    []float32 // contiguous vector arena; slot i at [i*dim, (i+1)*dim)
	norms   []float32 // Euclidean norm per slot, computed once at insert
	levels  []int32   // top layer per slot
	deleted []bool    // tombstone flags (COW'd by batches that tombstone)
	links   [][][]int32

	// Quantized side arenas, slot-parallel with vecs (see quant.go): int8
	// codes plus per-vector dequantization constants and precomputed code
	// sums. Queries walk these; construction and rescoring read vecs.
	qvecs  []int8
	qscale []float32
	qoff   []float32
	qsum   []int32

	entry  int // slot index, -1 when empty
	maxLvl int
	live   int // live (non-tombstoned) node count
}

// vecAt returns slot i's vector window in the arena.
func (g *graph) vecAt(i int) []float32 {
	return g.vecs[i*g.dim : (i+1)*g.dim]
}

// Index is an HNSW graph over float32 vectors with string external IDs.
// All public methods are safe for concurrent use; reads (Search, Len,
// PinLive, AppendSnapshot) are lock-free — they pin the current
// immutable view with one atomic load and never block on writers.
//
// Node storage is struct-of-arrays (see the package comment): vectors live
// in one contiguous arena indexed by node slot, with parallel slices for
// everything else, so beam search touches flat memory instead of chasing
// per-node pointers.
type Index struct {
	dim    int
	levelM float64

	// view is the published read-path state. Writers replace it wholesale;
	// readers load it once per operation and use it unlocked.
	view atomic.Pointer[graph]

	// Writer-only state below; mu serializes writers (batches), never
	// readers.
	mu   sync.Mutex
	rng  *rand.Rand
	byID map[string]int
	// copied stamps, per slot, the batch that last made links[slot]
	// privately writable (by COW or by appending the slot); writableLinks
	// consults it so each batch deep-copies a node's adjacency at most
	// once.
	copied []uint64
	batch  uint64
	// linksBatch/delBatch record the batch that last cloned the outer
	// links array / the tombstone array, making those clones once per
	// batch at most.
	linksBatch uint64
	delBatch   uint64
	// rngDraws counts level-generator draws so a serialized index can
	// fast-forward a fresh generator to the exact same state (see
	// LoadSnapshot): later inserts then assign the same levels a
	// never-serialized index would.
	rngDraws uint64
}

// New creates an empty index for vectors of the given dimensionality.
func New(dim int, cfg Config) *Index {
	ix := &Index{
		dim:    dim,
		levelM: 1 / math.Log(maxLinks),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		byID:   make(map[string]int),
	}
	ix.view.Store(&graph{dim: dim, entry: -1, maxLvl: -1})
	return ix
}

// beginBatch opens a writer batch (mu must be held): the draft starts as a
// shallow copy of the published view, so slice headers alias the published
// arrays until a mutation COWs them or an append grows them past the
// published length.
func (ix *Index) beginBatch() *graph {
	ix.batch++
	g := *ix.view.Load()
	return &g
}

// publish atomically swaps the draft in as the new published view
// (mu must be held). Readers that loaded the old view keep using it; the
// GC retires it once the last such reader drains.
func (ix *Index) publish(g *graph) {
	ix.view.Store(g)
}

// ensureOuterLinks makes the draft's outer links array privately writable
// (once per batch): entries below the published length are about to be
// replaced in place, which must not be visible through older views.
func (ix *Index) ensureOuterLinks(g *graph) {
	if ix.linksBatch == ix.batch {
		return
	}
	ix.linksBatch = ix.batch
	cl := make([][][]int32, len(g.links))
	copy(cl, g.links)
	g.links = cl
}

// writableLinks returns node u's adjacency layers, deep-copying them into
// the draft the first time this batch touches u. Nodes appended by this
// batch are already private.
func (ix *Index) writableLinks(g *graph, u int) [][]int32 {
	if ix.copied[u] == ix.batch {
		return g.links[u]
	}
	ix.ensureOuterLinks(g)
	old := g.links[u]
	nl := make([][]int32, len(old))
	for l, nbs := range old {
		nl[l] = append(make([]int32, 0, len(nbs)+1), nbs...)
	}
	g.links[u] = nl
	ix.copied[u] = ix.batch
	return nl
}

// tombstone marks slot i deleted in the draft, cloning the tombstone array
// the first time this batch tombstones anything.
func (ix *Index) tombstone(g *graph, i int) {
	if ix.delBatch != ix.batch {
		ix.delBatch = ix.batch
		cl := make([]bool, len(g.deleted))
		copy(cl, g.deleted)
		g.deleted = cl
	}
	g.deleted[i] = true
}

// Len returns the number of live vectors in the index.
func (ix *Index) Len() int {
	return ix.view.Load().live
}

// Tombstones returns the number of deleted or superseded nodes the graph
// still holds: slots that searches route through but never return.
func (ix *Index) Tombstones() int {
	g := ix.view.Load()
	return len(g.ids) - g.live
}

// Dim returns the vector dimensionality.
func (ix *Index) Dim() int { return ix.dim }

// AddBatch inserts ids[i] → vecs[i] in order inside a single writer batch,
// publishing one new view at the end instead of one per insert. Re-adding
// an existing ID — from an earlier batch or earlier in this one — replaces
// its vector (implemented as delete + fresh insert). The graph it builds is
// identical to len(ids) one-insert batches; batching only amortizes the
// per-batch copy-on-write cost, so bulk ingest stays O(n) in cloned
// headers rather than O(n²). Nothing is inserted if any vector has the
// wrong dimensionality.
func (ix *Index) AddBatch(ids []string, vecs [][]float32) error {
	if len(ids) != len(vecs) {
		return fmt.Errorf("hnsw: AddBatch got %d ids, %d vectors", len(ids), len(vecs))
	}
	for i, v := range vecs {
		if len(v) != ix.dim {
			return fmt.Errorf("hnsw: vector for %q has dim %d, index wants %d", ids[i], len(v), ix.dim)
		}
	}
	if len(ids) == 0 {
		return nil
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	g := ix.beginBatch()
	for i := range ids {
		ix.addLocked(g, ids[i], vecs[i])
		// Yield between inserts — the reads-first pacing policy. Searches
		// never take mu (they run on the published view, which stays
		// pre-batch until the publish below), so the only thing a batch
		// can cost concurrent readers is the scheduler: on a box whose
		// cores are saturated, an unyielding batch owns a P for tens of
		// milliseconds and reader tail latency becomes pure run-queue
		// wait. Yielding after every insert caps that wait at one
		// insert's work. When cores are idle Gosched is ~100ns against
		// a ~100µs insert, so bulk ingest throughput is unaffected
		// exactly where there is nothing to be fair to; under reader
		// pressure ingest deliberately slows instead of the p99 blowing
		// up.
		runtime.Gosched()
	}
	ix.publish(g)
	return nil
}

// addLocked applies one insert to the draft (mu held, batch open).
func (ix *Index) addLocked(g *graph, id string, vec []float32) {
	if old, ok := ix.byID[id]; ok {
		ix.tombstone(g, old)
		g.live--
		delete(ix.byID, id)
		if g.entry == old {
			ix.resetEntry(g)
		}
	}

	level := ix.randomLevel()
	idx := len(g.ids)
	g.ids = append(g.ids, id)
	g.vecs = append(g.vecs, vec...)
	g.norms = append(g.norms, vecmath.Norm(vec))
	g.levels = append(g.levels, int32(level))
	g.deleted = append(g.deleted, false)
	g.links = append(g.links, make([][]int32, level+1))
	ix.copied = append(ix.copied, ix.batch)
	ix.byID[id] = idx
	g.live++
	cp := g.vecAt(idx)
	appendQuantized(g, cp)

	if g.entry < 0 {
		g.entry = idx
		g.maxLvl = level
		return
	}

	s := scratchPool.Get().(*searchScratch)
	defer scratchPool.Put(s)
	s.prep(2 * maxLinks)

	ep := g.entry
	// Phase 1: greedy descent through layers above the new node's level.
	for lvl := g.maxLvl; lvl > level; lvl-- {
		ep = g.greedyClosest(s, cp, ep, lvl)
	}
	// Phase 2: per-layer beam search + neighbour selection from min(level,
	// maxLvl) down to 0.
	top := level
	if g.maxLvl < top {
		top = g.maxLvl
	}
	for lvl := top; lvl >= 0; lvl-- {
		candidates := g.searchLayer(s, cp, ep, efConstruction, lvl)
		m := maxLinks
		if lvl == 0 {
			m = 2 * maxLinks
		}
		selected := g.selectHeuristic(cp, candidates, maxLinks)
		for _, c := range selected {
			ix.link(g, idx, int(c.idx), lvl, m)
		}
		if len(candidates) > 0 {
			ep = int(candidates[0].idx)
		}
	}

	if level > g.maxLvl {
		g.maxLvl = level
		g.entry = idx
	}
}

// DeleteBatch tombstones every present ID inside a single writer batch and
// returns how many were present, publishing one new view at the end.
// Deleted nodes keep routing but never appear in results.
func (ix *Index) DeleteBatch(ids []string) int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	n := 0
	var g *graph
	for _, id := range ids {
		idx, ok := ix.byID[id]
		if !ok {
			continue
		}
		if g == nil {
			g = ix.beginBatch()
		}
		ix.deleteLocked(g, idx, id)
		n++
	}
	if g != nil {
		ix.publish(g)
	}
	return n
}

func (ix *Index) deleteLocked(g *graph, idx int, id string) {
	ix.tombstone(g, idx)
	g.live--
	delete(ix.byID, id)
	if g.entry == idx {
		ix.resetEntry(g)
	}
}

func (ix *Index) resetEntry(g *graph) {
	g.entry = -1
	g.maxLvl = -1
	for i := range g.ids {
		if g.deleted[i] {
			continue
		}
		if int(g.levels[i]) > g.maxLvl {
			g.maxLvl = int(g.levels[i])
			g.entry = i
		}
	}
}

// AdoptFrom atomically replaces this index's contents with donor's: the
// published view and the complete writer state (level generator, ID map,
// batch stamps) move over, so subsequent inserts behave exactly as they would
// have on the donor. Readers of this index are never blocked — they keep
// serving the old view until the donor's graph is published with one
// atomic swap. The donor must not be used afterwards; it exists so
// background segment compaction can build a shadow index off-lock and
// install it in O(1) under the shard writer lock.
func (ix *Index) AdoptFrom(donor *Index) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	donor.mu.Lock()
	defer donor.mu.Unlock()
	ix.rng = donor.rng
	ix.rngDraws = donor.rngDraws
	ix.byID = donor.byID
	ix.copied = donor.copied
	ix.batch = donor.batch
	ix.linksBatch = donor.linksBatch
	ix.delBatch = donor.delBatch
	ix.publish(donor.view.Load())
}

// Result is one nearest-neighbour hit.
type Result struct {
	ID string
	// Score is cosine similarity in [-1,1]; higher is better.
	Score float32
}

// Search returns up to k nearest neighbours of query by cosine similarity.
// The greedy descent and the layer-0 beam (width efSearch, widened to k)
// walk the int8 codes (see quant.go); the top k·rescoreFactor live
// candidates of the beam are then rescored with exact float32 cosine and
// ordered by (score desc, ID asc). Returned scores are therefore exact
// float32 values; quantization can only change which candidates reach the
// rescore set. It never blocks on writers: the whole search runs against
// the view published by the most recent completed batch.
//
// k is clamped to the live vector count and the beam to the slot count
// before either sizes anything: a beam at least as wide as the graph
// already visits every reachable node, so neither clamp changes a result,
// and an absurd k costs no more than k = Len().
func (ix *Index) Search(query []float32, k int) ([]Result, error) {
	if len(query) != ix.dim {
		return nil, fmt.Errorf("hnsw: query has dim %d, index wants %d", len(query), ix.dim)
	}
	if k <= 0 {
		return nil, nil
	}
	g := ix.view.Load()
	if g.entry < 0 {
		return nil, nil
	}
	k = min(k, g.live)
	ef := min(max(k, efSearch), len(g.ids))

	s := scratchPool.Get().(*searchScratch)
	defer scratchPool.Put(s)
	s.prep(max(2*maxLinks, ef))

	q := s.quantizeQuery(query)
	ep := g.entry
	for lvl := g.maxLvl; lvl > 0; lvl-- {
		ep = g.greedyClosestQ(s, &q, ep, lvl)
	}
	// Rescore the top k·rescoreFactor beam candidates, capped by the beam
	// itself: a wider rescore cannot recover vectors the beam never
	// surfaced, so inflating ef to match the factor would only re-widen
	// the traversal the int8 walk exists to cheapen.
	rescore := k * rescoreFactor
	cands := g.searchLayerQ(s, &q, ep, ef, 0)

	// The rescore set is scored with one DotBatch call over the float32
	// arena; dividing by the stored norms afterwards reproduces
	// CosineWithNorms exactly (same guard, same single division, and
	// DotBatch is bit-identical to Dot).
	batch := s.batch[:0]
	for _, c := range cands {
		if g.deleted[c.idx] {
			continue
		}
		batch = append(batch, c.idx)
		if len(batch) == rescore {
			break
		}
	}
	s.batch = batch
	dots := s.distBuf(len(batch))
	vecmath.DotBatch(query, g.vecs, g.dim, batch, dots)
	resc := s.resc[:0]
	for j, ci := range batch {
		var score float32
		if q.norm != 0 && g.norms[ci] != 0 {
			score = dots[j] / (q.norm * g.norms[ci])
		}
		// Negated score as distance: the shared cand sort orders ascending.
		resc = append(resc, cand{ci, -score})
	}
	s.resc = resc
	g.sortRescored(resc)
	out := make([]Result, 0, k)
	for _, c := range resc {
		out = append(out, Result{ID: g.ids[c.idx], Score: -c.dist})
		if len(out) == k {
			break
		}
	}
	return out, nil
}

// randomLevel draws the node level from the exponential distribution of the
// HNSW paper: floor(-ln(U) · mL).
func (ix *Index) randomLevel() int {
	ix.rngDraws++
	u := ix.rng.Float64()
	for u == 0 {
		ix.rngDraws++
		u = ix.rng.Float64()
	}
	return int(math.Floor(-math.Log(u) * ix.levelM))
}

// greedyClosest walks layer lvl greedily toward query from ep and returns
// the local minimum. Each hop scores the node's whole adjacency list with
// one batched call — the list is an immutable-once-published []int32 of
// arena slots, so it feeds SquaredL2Batch directly with no copy. Scanning
// the scores in list order with the same strict comparison reproduces the
// per-neighbor walk exactly.
func (g *graph) greedyClosest(s *searchScratch, query []float32, ep, lvl int) int {
	cur := ep
	curDist := vecmath.SquaredL2(query, g.vecAt(cur))
	for {
		improved := false
		nbs := g.links[cur]
		if lvl < len(nbs) && len(nbs[lvl]) > 0 {
			adj := nbs[lvl]
			dists := s.distBuf(len(adj))
			vecmath.SquaredL2Batch(query, g.vecs, g.dim, adj, dists)
			for j, nb := range adj {
				if d := dists[j]; d < curDist {
					cur, curDist = int(nb), d
					improved = true
				}
			}
		}
		if !improved {
			return cur
		}
	}
}

// cand pairs a node slot with its distance to the query.
type cand struct {
	idx  int32
	dist float32
}

// candHeap is a binary heap of candidates ordered by distance: a min-heap
// by default, a max-heap when max is set. One concrete type replaces the
// former container/heap min/max pair, so pushes and pops move 8-byte cand
// values directly instead of boxing them through interface{}.
type candHeap struct {
	items []cand
	max   bool
}

func (h *candHeap) len() int  { return len(h.items) }
func (h *candHeap) top() cand { return h.items[0] }
func (h *candHeap) reset()    { h.items = h.items[:0] }
func (h *candHeap) before(a, b cand) bool {
	if h.max {
		return a.dist > b.dist
	}
	return a.dist < b.dist
}

func (h *candHeap) push(c cand) {
	h.items = append(h.items, c)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.before(h.items[i], h.items[p]) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *candHeap) pop() cand {
	it := h.items
	root := it[0]
	n := len(it) - 1
	it[0] = it[n]
	h.items = it[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.before(it[r], it[c]) {
			c = r
		}
		if !h.before(it[c], it[i]) {
			break
		}
		it[i], it[c] = it[c], it[i]
		i = c
	}
	return root
}

// searchScratch is the reusable per-search working state: both beam-search
// heaps, the epoch-stamped visited array and the output buffer. Instances
// cycle through scratchPool; see the package comment for the lifecycle
// rules (no retention past the search, GC may drop pooled instances).
type searchScratch struct {
	visited []uint32
	epoch   uint32
	cands   candHeap // min-heap: next candidate to expand
	results candHeap // max-heap: worst of the ef best so far on top
	out     []cand
	qvec    []int8    // quantized-query codes
	resc    []cand    // exact-rescore buffer
	batch   []int32   // unvisited-candidate collect buffer for batched scoring
	dists   []float32 // batched float32 distance/dot outputs
	qdots   []int32   // batched int8 dot outputs
}

var scratchPool = sync.Pool{
	New: func() any {
		return &searchScratch{results: candHeap{max: true}}
	},
}

// prep sizes the batched-scoring buffers up front for a search whose
// collect sets are bounded by n (the layer-0 adjacency cap, or the beam
// width if wider), so a fresh scratch pays one fixed allocation per
// buffer instead of regrowing them mid-search.
func (s *searchScratch) prep(n int) {
	if cap(s.batch) < n {
		s.batch = make([]int32, 0, n)
	}
	if cap(s.dists) < n {
		s.dists = make([]float32, n)
	}
	if cap(s.qdots) < n {
		s.qdots = make([]int32, n)
	}
}

// distBuf returns a float32 output buffer with room for n batched scores,
// reusing (and growing) the pooled backing array so steady-state searches
// allocate nothing.
func (s *searchScratch) distBuf(n int) []float32 {
	if cap(s.dists) < n {
		s.dists = make([]float32, n)
	}
	return s.dists[:n]
}

// qdotBuf is distBuf for the int8 walk's int32 dot products.
func (s *searchScratch) qdotBuf(n int) []int32 {
	if cap(s.qdots) < n {
		s.qdots = make([]int32, n)
	}
	return s.qdots[:n]
}

// begin readies the scratch for a search over n node slots: both heaps are
// emptied and the visited epoch advances, invalidating every mark left by
// earlier searches (against this index or any other sharing the pool)
// without touching the array. On epoch wrap-around the array is zeroed so
// stale uint32 stamps from 2^32 searches ago cannot collide.
func (s *searchScratch) begin(n int) {
	s.cands.reset()
	s.results.reset()
	if cap(s.visited) < n {
		grown := make([]uint32, n)
		s.visited = grown
		s.epoch = 0
	}
	s.visited = s.visited[:cap(s.visited)]
	s.epoch++
	if s.epoch == 0 {
		clear(s.visited)
		s.epoch = 1
	}
}

// searchLayer is Algorithm 2: ef-bounded best-first search on one layer.
// Neighbor expansion is batched: the unvisited part of the adjacency list
// is collected first, scored with one SquaredL2Batch call against the
// vector arena, then pushed in list order. The batched kernels are
// bit-identical to single calls and scoring has no side effects, so the
// heap evolves exactly as it did when each neighbor was scored inline —
// results are unchanged, only the per-neighbor dispatch and call overhead
// is gone. The result is sorted ascending by distance and aliases
// s.out — it is valid only until the next search using the same scratch.
func (g *graph) searchLayer(s *searchScratch, query []float32, ep, ef, lvl int) []cand {
	s.begin(len(g.ids))
	s.visited[ep] = s.epoch
	epDist := vecmath.SquaredL2(query, g.vecAt(ep))
	s.cands.push(cand{int32(ep), epDist})
	s.results.push(cand{int32(ep), epDist})

	for s.cands.len() > 0 {
		c := s.cands.pop()
		if s.results.len() >= ef && c.dist > s.results.top().dist {
			break
		}
		nbs := g.links[c.idx]
		if lvl < len(nbs) {
			batch := s.batch[:0]
			for _, nb := range nbs[lvl] {
				if s.visited[nb] == s.epoch {
					continue
				}
				s.visited[nb] = s.epoch
				batch = append(batch, nb)
			}
			s.batch = batch
			if len(batch) == 0 {
				continue
			}
			dists := s.distBuf(len(batch))
			vecmath.SquaredL2Batch(query, g.vecs, g.dim, batch, dists)
			for j, nb := range batch {
				d := dists[j]
				if s.results.len() < ef || d < s.results.top().dist {
					s.cands.push(cand{nb, d})
					s.results.push(cand{nb, d})
					if s.results.len() > ef {
						s.results.pop()
					}
				}
			}
		}
	}
	n := s.results.len()
	if cap(s.out) < n {
		s.out = make([]cand, n)
	}
	out := s.out[:n]
	for i := n - 1; i >= 0; i-- {
		out[i] = s.results.pop()
	}
	return out
}

// selectHeuristic is Algorithm 4: pick up to m diverse neighbours — a
// candidate is kept only if it is closer to the query than to every
// already-kept neighbour.
func (g *graph) selectHeuristic(query []float32, cands []cand, m int) []cand {
	if len(cands) <= m {
		return cands
	}
	kept := make([]cand, 0, m)
	for _, c := range cands {
		if len(kept) >= m {
			break
		}
		ok := true
		for _, k := range kept {
			if vecmath.SquaredL2(g.vecAt(int(c.idx)), g.vecAt(int(k.idx))) < c.dist {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, c)
		}
	}
	// Backfill with nearest rejected candidates if diversity pruned too hard.
	if len(kept) < m {
		seen := make(map[int32]struct{}, len(kept))
		for _, k := range kept {
			seen[k.idx] = struct{}{}
		}
		for _, c := range cands {
			if len(kept) >= m {
				break
			}
			if _, dup := seen[c.idx]; !dup {
				kept = append(kept, c)
			}
		}
	}
	return kept
}

// link adds a bidirectional edge a↔b on layer lvl, shrinking neighbour
// lists that exceed maxLinks via the selection heuristic.
func (ix *Index) link(g *graph, a, b, lvl, maxLinks int) {
	if a == b {
		return
	}
	ix.addEdge(g, a, b, lvl, maxLinks)
	ix.addEdge(g, b, a, lvl, maxLinks)
}

func (ix *Index) addEdge(g *graph, from, to, lvl, maxLinks int) {
	if lvl >= len(g.links[from]) {
		return
	}
	for _, existing := range g.links[from][lvl] {
		if int(existing) == to {
			return
		}
	}
	nbs := ix.writableLinks(g, from)
	nbs[lvl] = append(nbs[lvl], int32(to))
	if len(nbs[lvl]) > maxLinks {
		// Re-select the best maxLinks neighbours relative to this node.
		vec := g.vecAt(from)
		cands := make([]cand, 0, len(nbs[lvl]))
		for _, nb := range nbs[lvl] {
			cands = append(cands, cand{nb, vecmath.SquaredL2(vec, g.vecAt(int(nb)))})
		}
		sortCands(cands)
		kept := g.selectHeuristic(vec, cands, maxLinks)
		links := make([]int32, 0, len(kept))
		for _, k := range kept {
			links = append(links, k.idx)
		}
		nbs[lvl] = links
	}
}

// sortCands orders a neighbour candidate list ascending by distance. Still
// needed by addEdge's overflow re-selection (which never goes through the
// beam-search heaps); insertion sort, because neighbour lists are tiny
// (≤ 2M+1).
func sortCands(cs []cand) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].dist < cs[j-1].dist; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}
