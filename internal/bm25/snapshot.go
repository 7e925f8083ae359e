package bm25

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"pneuma/internal/pnerr"
	"pneuma/internal/wire"
)

// AppendSnapshot appends the index state to w as one length-prefixed
// binary section: the document table (per document: external ID, token
// length, tombstone flag, distinct-term count) followed by the postings
// map, term-wise — each term once, with its (document slot, term
// frequency) list. Storing postings term-wise rather than repeating term
// strings per document keeps the section compact and lets LoadSnapshot
// rebuild the inverted index with one arena allocation, not tens of
// thousands of list growths. Terms are written in sorted order,
// making the serialized bytes deterministic for a fixed index state.
//
// Serialization runs against the view current at call time, concurrent
// with readers and without blocking writers; callers that need a
// particular quiesce point (the retriever's snapshot writer) serialize
// their own writers around the call.
//
// The Stats object is not serialized: its updates are commutative, so each
// restored shard re-contributes its live documents' aggregate on
// LoadSnapshot and shared totals converge to the same values regardless
// of shard restore order.
func (ix *Index) AppendSnapshot(w *wire.Writer) {
	v := ix.view.Load()

	var body wire.Writer
	body.Uvarint(uint64(len(v.docs)))
	for i := range v.docs {
		d := &v.docs[i]
		body.String(d.id)
		body.Uvarint(uint64(d.length))
		if d.deleted {
			body.Byte(1)
		} else {
			body.Byte(0)
		}
		body.Uvarint(uint64(len(d.tf)))
	}
	// Terms go out in sorted order, read through this view's slots: the
	// slot table is bounded by the view, and v.postings trims each list
	// to the view's document range, so neither terms nor postings added
	// by concurrent writer batches leak into the section.
	order := make([]int32, len(v.plists))
	total := 0
	for i := range order {
		order[i] = int32(i)
		total += len(v.postings(int32(i)))
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(v.plists[a].term, v.plists[b].term) })
	body.Uvarint(uint64(len(order)))
	body.Uvarint(uint64(total))
	for _, slot := range order {
		body.String(v.plists[slot].term)
		plist := v.postings(slot)
		body.Uvarint(uint64(len(plist)))
		for _, p := range plist {
			body.Uvarint(uint64(p.doc))
			body.Uvarint(uint64(p.tf))
		}
	}

	w.Uvarint(uint64(body.Len()))
	w.Raw(body.Bytes())
}

// LoadSnapshot restores state appended by AppendSnapshot into an empty
// index by parsing the length-prefixed section in place from a shared
// wire.Reader — no section copy, and every term and document ID decodes as
// a zero-copy view of the reader's buffer. This is the bulk-load path for
// snapshot opens, where the buffer (the snapshot file, read whole) is
// owned by the structures built from it: skipping the section copy removes
// the largest single heap allocation of an open, which both shortens the
// open and shrinks the garbage the collector scans while it runs.
//
// Posting lists are rebuilt as capacity-limited windows into a single
// arena (a later AddBatch copies-on-append, so the windows stay
// immutable), the per-document slot lists that deletes need are
// reconstituted from the postings, and the live per-term document
// frequencies fall out of the same pass. The restored live documents'
// aggregate — document count, total length, per-term live frequencies —
// is contributed to the index's Stats at the end, exactly matching a
// replay of the original batch sequence. A malformed or truncated section
// leaves the index and its Stats unchanged and returns an error matching
// pnerr.ErrIndexCorrupt.
func (ix *Index) LoadSnapshot(rd *wire.Reader) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if len(ix.view.Load().docs) != 0 {
		return fmt.Errorf("bm25: LoadSnapshot into non-empty index")
	}
	size := int(rd.Uvarint())
	sec := rd.Section(size)
	if err := rd.Err(); err != nil {
		return pnerr.Corrupt("bm25: load snapshot", fmt.Errorf("section header: %w", err))
	}
	if err := ix.readBody(sec); err != nil {
		return pnerr.Corrupt("bm25: load snapshot", err)
	}
	return nil
}

// readBody parses an AppendSnapshot section body and commits it by
// publishing a fresh view (mu held, index empty). The reader must span
// exactly the section body and be in shared mode: strings are retained as
// decoded.
func (ix *Index) readBody(rd *wire.Reader) error {
	cur := ix.view.Load()
	secLen := rd.Remaining()
	ndocs := int(rd.Uvarint())
	// Every document costs at least a few bytes, so a count exceeding the
	// section size is malformed — reject before allocating for it. A
	// posting's document index is 4 bytes, which bounds the count too.
	if ndocs < 0 || ndocs > secLen || ndocs > math.MaxInt32 {
		return fmt.Errorf("bm25: snapshot section claims %d docs in %d bytes", ndocs, secLen)
	}
	docs := make([]docInfo, ndocs)
	// offs are per-document windows into the term-list arena, sized from
	// the stored distinct-term counts; the postings pass below fills them.
	offs := make([]int32, ndocs+1)
	for i := range docs {
		docs[i].id = rd.String()
		docs[i].length = int(rd.Uvarint())
		docs[i].deleted = rd.Byte() != 0
		nt := int(rd.Uvarint())
		if nt < 0 || nt > secLen {
			return fmt.Errorf("bm25: snapshot doc %d claims %d terms", i, nt)
		}
		offs[i+1] = offs[i] + int32(nt)
	}
	nterms := int(rd.Uvarint())
	total := int(rd.Uvarint())
	if nterms < 0 || nterms > rd.Remaining() || total < 0 || total > rd.Remaining() {
		return fmt.Errorf("bm25: snapshot section claims %d terms / %d postings in %d bytes",
			nterms, total, rd.Remaining())
	}
	if int(offs[ndocs]) != total {
		return fmt.Errorf("bm25: snapshot section: %d per-doc terms vs %d postings", offs[ndocs], total)
	}
	plists := make([]*termPostings, 0, nterms)
	// The live document-frequency aggregate accumulates as a slice of
	// (slot, live count) and reaches the Stats object only at commit.
	agg := make([]slotTF, 0, nterms)
	arena := make([]posting, 0, total)
	tfArena := make([]slotTF, total)
	fill := make([]int32, ndocs)
	for i := 0; i < nterms && rd.Err() == nil; i++ {
		term := rd.String()
		np := int(rd.Uvarint())
		if np < 0 || np > total-len(arena) {
			return fmt.Errorf("bm25: snapshot term %q claims %d postings", term, np)
		}
		slot := int32(len(plists))
		start := len(arena)
		live := int32(0)
		for j := 0; j < np; j++ {
			// Postings hold 4-byte fields: a value past math.MaxInt32
			// is rejected here, never truncated.
			doc, tf := rd.Uvarint(), rd.Uvarint()
			if doc >= uint64(ndocs) || tf == 0 || tf > math.MaxInt32 {
				return fmt.Errorf("bm25: snapshot term %q has invalid posting (doc %d, tf %d)", term, doc, tf)
			}
			if offs[doc]+fill[doc] >= offs[doc+1] {
				return fmt.Errorf("bm25: snapshot doc %d has more postings than declared terms", doc)
			}
			arena = append(arena, posting{doc: int32(doc), tf: int32(tf)})
			tfArena[offs[doc]+fill[doc]] = slotTF{slot: slot, tf: int32(tf)}
			fill[doc]++
			if !docs[doc].deleted {
				live++
			}
		}
		// Capacity-limited window: appending to this term's list later
		// reallocates instead of stomping the next term's postings.
		tp := &termPostings{term: term}
		window := arena[start:len(arena):len(arena)]
		tp.data.Store(&window)
		plists = append(plists, tp)
		if live > 0 {
			agg = append(agg, slotTF{slot: slot, tf: live})
		}
	}
	if err := rd.Err(); err != nil {
		return fmt.Errorf("bm25: snapshot section: %w", err)
	}
	if len(arena) != total {
		return fmt.Errorf("bm25: snapshot section has %d postings, declared %d", len(arena), total)
	}
	for i := range docs {
		docs[i].tf = tfArena[offs[i]:offs[i+1]:offs[i+1]]
	}

	// Commit: build the restored view and publish it in one swap. A
	// restore assigns slots from scratch, so it starts a fresh term-table
	// lineage rather than reusing the empty index's table.
	v := &lexView{terms: newTermTable(plists), plists: plists, docs: docs, stats: cur.stats}
	byID := make(map[string]int, ndocs)
	totalLen := 0
	for slot := range docs {
		d := &docs[slot]
		if d.deleted {
			continue
		}
		byID[d.id] = slot
		totalLen += d.length
		v.liveDocs++
	}
	ix.byID = byID
	v.stats.addAggregate(agg, plists, v.liveDocs, totalLen)
	ix.view.Store(v)
	return nil
}

// AttachStats moves the index onto the shared corpus statistics st. The
// totals of the index's own Stats — exactly its live documents' aggregate
// of document count, total token length and per-term live document
// frequencies — are merged into st and the view is re-pointed at st, after
// which the index scores as if it had been created with NewWithStats. The
// index's current Stats must be private to it (New, or NewWithStats with a
// nil Stats). The snapshot loader restores every shard against a private
// Stats and attaches it only once the entire multi-section snapshot has
// validated: a half-parsed snapshot must never leave its document
// frequencies behind in the corpus totals. A nil st, or the Stats already
// attached, is a no-op.
func (ix *Index) AttachStats(st *Stats) {
	if st == nil {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	cur := ix.view.Load()
	if cur.stats == st {
		return
	}
	st.merge(cur.stats)
	v := *cur
	v.stats = st
	ix.publish(&v)
}

// AdoptFrom atomically replaces this index's contents with donor's: the
// published view and the writer state (ID map, batch stamps) move over,
// and the adopted view is re-pointed at this index's Stats. The donor is
// expected to be a shadow rebuilt against a private Stats over this
// index's live documents (background segment compaction builds it that
// way so the rebuild never touches this index's Stats, whose counts
// already reflect exactly those documents); the donor's Stats is dropped
// and ranking is unchanged, because both describe the same corpus.
// Readers are never blocked; the donor must not be used afterwards.
func (ix *Index) AdoptFrom(donor *Index) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	donor.mu.Lock()
	defer donor.mu.Unlock()
	v := *donor.view.Load()
	v.stats = ix.view.Load().stats
	ix.byID = donor.byID
	ix.batch = donor.batch
	ix.pubDocs = donor.pubDocs
	ix.docsBatch = donor.docsBatch
	ix.publish(&v)
}
