package bm25

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"pneuma/internal/textutil"
)

// Params are the BM25 free parameters.
type Params struct {
	// K1 controls term-frequency saturation. Default 1.2.
	K1 float64
	// B controls document-length normalization. Default 0.75.
	B float64
}

func (p Params) withDefaults() Params {
	if p.K1 <= 0 {
		p.K1 = 1.2
	}
	if p.B < 0 || p.B > 1 {
		p.B = 0.75
	}
	if p.B == 0 {
		p.B = 0.75
	}
	return p
}

// posting is one document's entry in a term's posting list. Both fields
// are 4 bytes: a shard holds far fewer than 2^31 documents, and the
// snapshot loader rejects a term frequency that does not fit.
type posting struct {
	doc int32
	tf  int32
}

// slotTF is one distinct term of a document, named by its slot in the
// shard's term table, with its in-document frequency.
type slotTF struct {
	slot int32
	tf   int32
}

type docInfo struct {
	id      string
	length  int
	deleted bool
	// tf keeps the document's distinct terms by slot, so a delete or
	// re-add can reverse the document's contribution to the Stats object
	// exactly. A slice rather than a map: it is only ever iterated. The
	// term strings live once per shard, in termPostings.term.
	tf []slotTF
}

// termTable interns terms to dense slots. One table is shared by every
// view of a slot lineage: slots are append-only and never reassigned
// within a lineage, so a reader resolving a term against its pinned view
// simply ignores slots at or beyond the view's own slot count (terms
// interned after that view was published — see lexView.termSlot).
// sync.Map fits the access pattern exactly: lookups vastly outnumber
// inserts, Load is allocation-free on the query path, and only the
// mutex-serialized writer ever Stores. Sharing one table makes interning
// O(new terms) per batch, where the copy-on-write scheme used by the
// other view state would pay a full-vocabulary clone per batch — ruinous
// for one-document batches. Anything that reassigns slots (a snapshot
// restore, a shadow installed by AdoptFrom) starts a new lineage with a
// fresh table, so a slot's meaning never changes under a live view.
type termTable struct {
	m sync.Map // term → int32 slot; the key is the slot's termPostings.term
}

func newTermTable() *termTable { return &termTable{} }

func (t *termTable) lookup(term string) (int32, bool) {
	v, ok := t.m.Load(term)
	if !ok {
		return 0, false
	}
	return v.(int32), true
}

func (t *termTable) intern(term string, slot int32) { t.m.Store(term, slot) }

// termPostings is one term's posting list. The struct is allocated once
// per slot and its address never changes, which keeps the outer plists
// array append-only — views share it without copy-on-write. The list
// itself grows through an atomically published header: the writer
// appends (the new element lands past every published view's visible
// prefix, so in-place growth within spare capacity is tail-safe) and
// stores the new header; readers load a header once and, because
// postings are appended in document-index order, trim it to their own
// view's document range (lexView.postings). term is the one copy of the
// term string the shard keeps: the term table's key, the Stats key and
// the snapshot writer all read it from here.
type termPostings struct {
	term string
	data atomic.Pointer[[]posting]
	// next is the writer's list (mu held) while the open AddBatch appends
	// to it, nil between batches: its header is made on the term's first
	// posting in the batch and stored into data once, at the batch's end,
	// so a batch makes one header per term it touches, not one per
	// posting.
	next *[]posting
}

func (tp *termPostings) load() []posting {
	if p := tp.data.Load(); p != nil {
		return *p
	}
	return nil
}

// append adds p to the open batch's list (mu held).
func (tp *termPostings) append(p posting) {
	if tp.next != nil {
		*tp.next = append(*tp.next, p)
		return
	}
	data := append(tp.load(), p)
	tp.next = &data
}

// storePostings publishes the list of every term the documents added to the
// draft since document first hold (mu held, before the view is published).
func (v *lexView) storePostings(first int) {
	for _, d := range v.docs[first:] {
		for _, e := range d.tf {
			if tp := v.plists[e.slot]; tp.next != nil {
				tp.data.Store(tp.next)
				tp.next = nil
			}
		}
	}
}

// lexView is one immutable published view of the index: everything the
// query path touches, frozen at a writer-batch boundary. Terms are
// interned to dense slots (terms) so the mutable per-term state — the
// posting lists — lives in slot-indexed structures that share across
// views cheaply.
//
// Views share storage where sharing is safe: the document table and the
// outer plists array grow in place past the published length (readers
// never index beyond their own view's len), the term table is shared
// outright (slots are append-only; termSlot bounds every hit by the
// view's own slot count), and posting lists are shared behind per-term
// atomic headers bounded per view by document index (termPostings).
// State a batch mutates *below* the published length — the document
// table when tombstoning — is cloned by the draft before the first such
// mutation. The clone is what bounds a batch's cost: nothing left in the
// write path copies the whole vocabulary, so a one-document batch costs
// O(document), not O(index).
type lexView struct {
	terms  *termTable      // term → slot, shared across the slot lineage
	plists []*termPostings // posting list per term slot
	docs   []docInfo
	// stats is the corpus-statistics object this index contributes to and
	// scores against: private to the index (New) or shared by a set of
	// shard indexes (NewWithStats). It lives in the view, not the Index,
	// so AttachStats and AdoptFrom re-point it with the same atomic
	// publish that guards everything else.
	stats    *Stats
	liveDocs int
}

// Index is an inverted index with BM25 ranking. Safe for concurrent use;
// queries are lock-free — they pin the current view with one atomic load
// and never block on writers (the one exception is the shared Stats
// object, read once per query under a brief RLock).
type Index struct {
	params Params

	// view is the published read-path state. Writers replace it
	// wholesale; readers load it once per query.
	view atomic.Pointer[lexView]

	// Writer-only state below; mu serializes writers, never readers.
	mu   sync.Mutex
	byID map[string]int
	// Batch bookkeeping: pubDocs is the published document-table length
	// at beginBatch; entries below it belong to older views and force a
	// clone (once per batch, tracked by the *Batch stamps) before any
	// in-place write.
	batch     uint64
	pubDocs   int
	docsBatch uint64
	// scratch pools *searchScratch values so steady-state Search reuses its
	// dense score accumulator instead of allocating per query.
	scratch sync.Pool
}

// New creates an empty index scored against a Stats object of its own.
func New(params Params) *Index {
	return NewWithStats(params, nil)
}

// NewWithStats creates an empty index that contributes its documents to the
// shared corpus statistics st and scores queries against st's global
// document count, average length and document frequencies. Several shard
// indexes sharing one Stats rank exactly like a single index over the
// union of their corpora. A nil st gives the index a private Stats, which
// is New.
func NewWithStats(params Params, st *Stats) *Index {
	if st == nil {
		st = NewStats()
	}
	ix := &Index{
		params: params.withDefaults(),
		byID:   make(map[string]int),
	}
	ix.view.Store(&lexView{terms: newTermTable(), stats: st})
	return ix
}

// beginBatch opens a writer batch (mu must be held): the draft starts as a
// shallow copy of the published view; the mutation helpers below clone
// the arrays they touch at most once per batch.
func (ix *Index) beginBatch() *lexView {
	ix.batch++
	v := *ix.view.Load()
	ix.pubDocs = len(v.docs)
	return &v
}

func (ix *Index) publish(v *lexView) {
	ix.view.Store(v)
}

// termSlot resolves term to its slot in this view. The table is shared
// with newer views of the lineage, so a hit must also fall inside this
// view's slot range: a slot at or beyond len(plists) was interned after
// this view was frozen and is invisible to it. The same bound serves the
// writer resolving terms against its draft, whose plists length grows as
// the batch interns.
func (v *lexView) termSlot(term string) (int32, bool) {
	slot, ok := v.terms.lookup(term)
	if !ok || int(slot) >= len(v.plists) {
		return 0, false
	}
	return slot, true
}

// postings returns the slot's posting list as visible to this view.
// Lists are shared across the lineage and append-only, and postings are
// appended in document-index order, so the view's visible postings are
// exactly the prefix whose doc index falls inside the view's document
// table; anything past it was indexed after this view was frozen. The
// common case — no writer ran since the view was published — is a single
// tail check.
func (v *lexView) postings(slot int32) []posting {
	pl := v.plists[slot].load()
	nd := len(v.docs)
	if n := len(pl); n > 0 && int(pl[n-1].doc) >= nd {
		pl = pl[:sort.Search(n, func(i int) bool { return int(pl[i].doc) >= nd })]
	}
	return pl
}

// writableDocs makes the document table writable at slot idx (for
// tombstoning), cloning it once per batch when idx precedes the published
// length.
func (ix *Index) writableDocs(v *lexView, idx int) []docInfo {
	if idx < ix.pubDocs && ix.docsBatch != ix.batch {
		ix.docsBatch = ix.batch
		cl := make([]docInfo, len(v.docs))
		copy(cl, v.docs)
		v.docs = cl
	}
	return v.docs
}

// Len returns the number of live documents.
func (ix *Index) Len() int {
	return ix.view.Load().liveDocs
}

// AddBatch indexes texts[i] under ids[i], in order, inside a single
// writer batch. Re-adding an ID — from an earlier batch or earlier in this
// one — replaces the old document (tombstoned; postings of dead docs are
// skipped at query time). The result is identical to len(ids) one-document
// batches, but one new view is published at the end instead of one per
// document, amortizing the batch's copy-on-write cost.
func (ix *Index) AddBatch(ids, texts []string) {
	if len(ids) == 0 {
		return
	}
	toks := make([][]string, len(ids))
	distinct := 0
	for i, t := range texts {
		toks[i] = textutil.NormalizeTokens(t)
		sort.Strings(toks[i])
		for j, tok := range toks[i] {
			if j == 0 || tok != toks[i][j-1] {
				distinct++
			}
		}
		// Reads-first yield (see hnsw.AddBatch): tokenizing a multi-KB
		// document is the expensive part of a lexical batch, and it runs
		// outside the lock — but on a saturated box an unyielding loop
		// still starves concurrent searches of the scheduler.
		runtime.Gosched()
	}
	// Every document's term list is a window of one arena sized by the
	// batch's distinct terms; the token slices die with the batch.
	arena := make([]slotTF, 0, distinct)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	v := ix.beginBatch()
	first := len(v.docs)
	for i := range ids {
		arena = ix.addLocked(v, ids[i], toks[i], arena)
	}
	v.storePostings(first)
	ix.publish(v)
}

// addLocked applies one insert of a document's sorted tokens to the draft
// (mu held, batch open): it walks their runs, interning new terms and
// appending one posting per distinct term, and cuts the document's term
// list from arena, which it returns grown by that list.
func (ix *Index) addLocked(v *lexView, id string, tokens []string, arena []slotTF) []slotTF {
	if old, ok := ix.byID[id]; ok {
		if !v.docs[old].deleted {
			ix.tombstoneLocked(v, old)
		}
	}
	docIdx := len(v.docs)
	ix.byID[id] = docIdx
	start := len(arena)
	for i := 0; i < len(tokens); {
		term := tokens[i]
		j := i + 1
		for j < len(tokens) && tokens[j] == term {
			j++
		}
		tf := int32(j - i)
		i = j
		slot, ok := v.termSlot(term)
		if !ok {
			slot = int32(len(v.plists))
			v.terms.intern(term, slot)
			v.plists = append(v.plists, &termPostings{term: term})
		}
		v.plists[slot].append(posting{doc: int32(docIdx), tf: tf})
		arena = append(arena, slotTF{slot: slot, tf: tf})
	}
	tf := arena[start:len(arena):len(arena)]
	v.docs = append(v.docs, docInfo{id: id, length: len(tokens), tf: tf})
	v.liveDocs++
	v.stats.addDoc(tf, v.plists, len(tokens))
	return arena
}

// DeleteBatch tombstones every present ID inside a single writer batch and
// returns how many were present, publishing one new view at the end.
func (ix *Index) DeleteBatch(ids []string) int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	n := 0
	var v *lexView
	for _, id := range ids {
		idx, ok := ix.byID[id]
		if !ok {
			continue
		}
		if v == nil {
			v = ix.beginBatch()
		}
		if v.docs[idx].deleted {
			continue
		}
		ix.tombstoneLocked(v, idx)
		delete(ix.byID, id)
		n++
	}
	if v != nil {
		ix.publish(v)
	}
	return n
}

// tombstoneLocked marks document slot idx dead in the draft and reverses
// its contribution to the Stats object.
func (ix *Index) tombstoneLocked(v *lexView, idx int) {
	docs := ix.writableDocs(v, idx)
	docs[idx].deleted = true
	v.liveDocs--
	v.stats.removeDoc(docs[idx].tf, v.plists, docs[idx].length)
}

// Result is one ranked hit.
type Result struct {
	ID    string
	Score float64
}

// lexHit is one scored document during top-k selection.
type lexHit struct {
	doc   int32
	score float64
}

// searchScratch is the reusable per-query working state: a dense score
// accumulator and per-document length-norm cache (both epoch-stamped so a
// recycled scratch needs no zeroing), the touched-document list, the
// bounded top-k heap, and the deduplicated query-term arrays. Instances
// cycle through Index.scratch; the sync.Pool contract applies (GC may
// drop pooled instances, so only steady-state queries are
// allocation-free).
type searchScratch struct {
	stamp   []uint32
	epoch   uint32
	scores  []float64
	norms   []float64
	touched []int32
	topk    []lexHit
	// Deduplicated query terms present in the index, with their weights,
	// term slots and (filled in one shared-Stats lock acquisition)
	// document frequencies.
	qterms []string
	qw     []float64
	qslots []int32
	qdf    []int32
}

// begin readies the scratch for a query over n document slots. Stale
// scores/norms from earlier queries are invalidated by bumping the epoch,
// not by clearing; the arrays are zeroed only on uint32 epoch wrap.
func (s *searchScratch) begin(n int) {
	if cap(s.stamp) < n {
		s.stamp = make([]uint32, n)
		s.scores = make([]float64, n)
		s.norms = make([]float64, n)
		s.epoch = 0
	}
	s.stamp = s.stamp[:cap(s.stamp)]
	s.scores = s.scores[:len(s.stamp)]
	s.norms = s.norms[:len(s.stamp)]
	s.touched = s.touched[:0]
	s.topk = s.topk[:0]
	s.qterms = s.qterms[:0]
	s.qw = s.qw[:0]
	s.qslots = s.qslots[:0]
	s.qdf = s.qdf[:0]
	s.epoch++
	if s.epoch == 0 {
		clear(s.stamp)
		s.epoch = 1
	}
}

// worseHit reports whether a ranks strictly below b in the result ordering
// (score descending, ID ascending). It is the top-k heap's "less", so the
// worst kept hit sits at the root.
func worseHit(ds []docInfo, a, b lexHit) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return ds[a.doc].id > ds[b.doc].id
}

func siftUpHit(ds []docInfo, h []lexHit, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !worseHit(ds, h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func siftDownHit(ds []docInfo, h []lexHit, i int) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && worseHit(ds, h[r], h[c]) {
			c = r
		}
		if !worseHit(ds, h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Search returns the top-k documents for the query, ranked by BM25 score.
// Documents with zero overlap are never returned. The whole query runs
// against the view published by the most recent completed writer batch.
func (ix *Index) Search(query string, k int) []Result {
	if k <= 0 {
		return nil
	}
	terms := textutil.NormalizeTokens(query)
	if len(terms) == 0 {
		return nil
	}
	v := ix.view.Load()
	if v.liveDocs == 0 {
		return nil
	}

	// Query terms are deduplicated (multiplicity becomes the query weight)
	// by sorting the token slice in place and walking runs — no map, no
	// second slice. The sorted order is also load-bearing: per-document
	// scores are float sums over terms, float addition is not associative,
	// and Go randomizes map iteration — so map-order accumulation would
	// make a score's last ULP (and with it the order of near-tied
	// documents) vary run to run, breaking the determinism contract.
	sort.Strings(terms)

	s, _ := ix.scratch.Get().(*searchScratch)
	if s == nil {
		s = &searchScratch{}
	}
	defer ix.scratch.Put(s)
	s.begin(len(v.docs))

	// Pass 1: resolve the distinct query terms present in this index to
	// their slots, keeping the sorted order (which fixes the float
	// accumulation order below).
	for i := 0; i < len(terms); {
		term := terms[i]
		j := i + 1
		for j < len(terms) && terms[j] == term {
			j++
		}
		qw := float64(j - i)
		i = j
		slot, ok := v.termSlot(term)
		if !ok {
			continue
		}
		s.qterms = append(s.qterms, term)
		s.qw = append(s.qw, qw)
		s.qslots = append(s.qslots, slot)
	}
	if len(s.qterms) == 0 {
		return nil
	}

	// Pass 2: corpus statistics, snapshotted for all query terms in one
	// lock acquisition — global ones when the Stats object is shared by a
	// set of shards.
	if cap(s.qdf) < len(s.qterms) {
		s.qdf = make([]int32, len(s.qterms))
	}
	s.qdf = s.qdf[:len(s.qterms)]
	n, avgLen := v.stats.QueryStats(s.qterms, s.qdf)
	corpusDocs := float64(n)

	// Pass 3: score.
	k1 := ix.params.K1
	b := ix.params.B
	for qi := range s.qterms {
		df := float64(s.qdf[qi])
		if df == 0 {
			continue
		}
		qw := s.qw[qi]
		idf := math.Log(1 + (corpusDocs-df+0.5)/(df+0.5))
		for _, p := range v.postings(s.qslots[qi]) {
			di := &v.docs[p.doc]
			if di.deleted {
				continue
			}
			// The length norm depends only on the document and the
			// query-constant avgLen, so it is computed once per touched
			// document, not once per posting.
			if s.stamp[p.doc] != s.epoch {
				s.stamp[p.doc] = s.epoch
				s.scores[p.doc] = 0
				s.norms[p.doc] = k1 * (1 - b + b*float64(di.length)/avgLen)
				s.touched = append(s.touched, p.doc)
			}
			tf := float64(p.tf)
			s.scores[p.doc] += qw * idf * (tf * (k1 + 1)) / (tf + s.norms[p.doc])
		}
	}
	if len(s.touched) == 0 {
		return nil
	}

	// Bounded top-k selection: a k-sized heap with the worst kept hit on
	// top, instead of materializing and sorting every scored document. The
	// comparator is the total result order (score desc, ID asc; IDs are
	// unique), so the selected set and its final sorted order are identical
	// to what a full sort would produce, regardless of accumulation order.
	h := s.topk
	for _, d := range s.touched {
		hit := lexHit{doc: d, score: s.scores[d]}
		if len(h) < k {
			h = append(h, hit)
			siftUpHit(v.docs, h, len(h)-1)
		} else if worseHit(v.docs, h[0], hit) {
			h[0] = hit
			siftDownHit(v.docs, h, 0)
		}
	}
	s.topk = h

	// Drain the heap worst-first into the result slice back to front, so
	// the caller sees best-first order.
	out := make([]Result, len(h))
	for i := len(h) - 1; i >= 0; i-- {
		top := h[0]
		out[i] = Result{ID: v.docs[top.doc].id, Score: top.score}
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		siftDownHit(v.docs, h, 0)
	}
	return out
}

// Vocabulary returns the number of distinct terms indexed (including terms
// only present in tombstoned documents). Each interned term owns exactly
// one posting-list slot, so the view's slot count is its vocabulary size.
func (ix *Index) Vocabulary() int {
	return len(ix.view.Load().plists)
}
