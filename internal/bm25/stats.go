package bm25

import "sync"

// Stats holds corpus-wide BM25 statistics — document count, total token
// length (for avgdl) and per-term document frequencies — shared by a set of
// shard-partitioned indexes. When every shard of a partitioned index scores
// against the same Stats object, a document receives exactly the score it
// would receive in one monolithic index over the whole corpus, so sharded
// ranking is identical to single-index ranking even on corpora small enough
// that per-shard statistics would diverge badly from the global ones.
//
// Every index counts through a Stats object: one of its own (New) or one
// shared with its sibling shards (NewWithStats). Stats is updated
// incrementally by the owning indexes on every insert and delete
// (including re-add replacement), never recomputed by scanning, so all
// updates are commutative: the final state after a bulk ingest is
// independent of the order shard goroutines interleave in. Document
// frequencies are keyed by term string, not slot: the shards sharing a
// Stats assign slots independently. All methods are safe for concurrent
// use.
type Stats struct {
	mu       sync.RWMutex
	docCount int
	totalLen int
	df       map[string]int
}

// NewStats creates an empty corpus-statistics object.
func NewStats() *Stats {
	return &Stats{df: make(map[string]int)}
}

// addDoc folds one document's distinct terms and token length into the
// corpus statistics. The terms are read through the document's slots in
// plists, so the df keys are the owning shard's interned strings.
func (s *Stats) addDoc(tf []slotTF, plists []*termPostings, length int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.docCount++
	s.totalLen += length
	for _, e := range tf {
		s.df[plists[e.slot].term]++
	}
}

// addAggregate folds a whole shard's live aggregate — document count,
// total token length and per-term live document frequencies, each agg
// entry a slot of plists with its live count — into the corpus statistics
// in one pass. Equivalent to calling addDoc for every live document, but
// with one map operation per distinct term instead of one per (document,
// term) pair; the snapshot loader uses it to make bulk restores cheap.
func (s *Stats) addAggregate(agg []slotTF, plists []*termPostings, docCount, totalLen int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.df) == 0 && len(agg) > 0 {
		s.df = make(map[string]int, len(agg))
	}
	s.docCount += docCount
	s.totalLen += totalLen
	for _, e := range agg {
		s.df[plists[e.slot].term] += int(e.tf)
	}
}

// merge folds every total of o into s: how an index restored against a
// private Stats joins the shared one (Index.AttachStats).
func (s *Stats) merge(o *Stats) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.df) == 0 && len(o.df) > 0 {
		// First fold into an empty corpus: re-make the map with room for
		// this shard and its siblings (shard vocabularies are largely
		// disjoint on value-heavy corpora, so the union approaches the
		// sum), instead of rehashing it up from nothing term by term.
		s.df = make(map[string]int, 4*len(o.df))
	}
	s.docCount += o.docCount
	s.totalLen += o.totalLen
	for t, n := range o.df {
		s.df[t] += n
	}
}

// removeDoc reverses addDoc for a deleted or replaced document.
func (s *Stats) removeDoc(tf []slotTF, plists []*termPostings, length int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.docCount--
	s.totalLen -= length
	for _, e := range tf {
		term := plists[e.slot].term
		if s.df[term] > 1 {
			s.df[term]--
		} else {
			delete(s.df, term)
		}
	}
}

// DocCount returns the number of live documents across all owning indexes.
func (s *Stats) DocCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.docCount
}

// AvgDocLen returns the corpus-wide average document length in tokens
// (1 when the corpus is empty or all-empty, so scoring never divides by
// zero).
func (s *Stats) AvgDocLen() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.docCount == 0 || s.totalLen == 0 {
		return 1
	}
	return float64(s.totalLen) / float64(s.docCount)
}

// DocFreq returns the number of live documents containing term.
func (s *Stats) DocFreq(term string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.df[term]
}

// QueryStats snapshots everything one query needs — the corpus document
// count, the average document length, and the document frequency of every
// term in terms (written into df, which must have len(terms)) — under a
// single lock acquisition. Scoring a query from one coherent snapshot
// instead of per-term DocFreq calls both shortens the read-side critical
// sections under concurrent ingest and keeps all of a query's frequencies
// from one quiesce point.
func (s *Stats) QueryStats(terms []string, df []int32) (docCount int, avgDocLen float64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i, t := range terms {
		df[i] = int32(s.df[t])
	}
	avgDocLen = 1
	if s.docCount > 0 && s.totalLen > 0 {
		avgDocLen = float64(s.totalLen) / float64(s.docCount)
	}
	return s.docCount, avgDocLen
}
