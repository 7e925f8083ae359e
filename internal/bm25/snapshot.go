package bm25

import (
	"fmt"
	"io"
	"sort"

	"pneuma/internal/wire"
)

// WriteTo serializes the index state as one length-prefixed binary
// section, implementing io.WriterTo: the document table (per document:
// external ID, token length, tombstone flag, distinct-term count) followed
// by the postings map, term-wise — each term once, with its (document
// slot, term frequency) list. Storing postings term-wise rather than
// repeating term strings per document keeps the section compact and lets
// ReadFromShared rebuild the inverted index with one arena allocation, not
// tens of thousands of list growths. Terms are written in sorted order,
// making the serialized bytes deterministic for a fixed index state.
//
// Serialization runs against the view current at call time, concurrent
// with readers and without blocking writers; callers that need a
// particular quiesce point (the retriever's snapshot writer) serialize
// their own writers around the call.
//
// The shared corpus Stats object (NewWithStats) is not serialized: its
// updates are commutative, so each restored shard re-contributes its live
// documents' aggregate on ReadFromShared and the shared totals converge to
// the same values regardless of shard restore order.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
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
	// The term table is shared with newer views; forEach bounds the walk
	// to this view's slots, so terms interned by concurrent writer batches
	// never leak into the section.
	terms := make([]string, 0, len(v.plists))
	slots := make(map[string]int32, len(v.plists))
	total := 0
	v.terms.forEach(len(v.plists), func(t string, slot int32) {
		terms = append(terms, t)
		slots[t] = slot
		// v.postings trims to the view's document range, so postings
		// appended by concurrent writer batches never leak into the
		// section — and the trim bound is fixed by the view, so this
		// count and the emission pass below see identical prefixes.
		total += len(v.postings(slot))
	})
	sort.Strings(terms)
	body.Uvarint(uint64(len(terms)))
	body.Uvarint(uint64(total))
	for _, t := range terms {
		body.String(t)
		plist := v.postings(slots[t])
		body.Uvarint(uint64(len(plist)))
		for _, p := range plist {
			body.Uvarint(uint64(p.doc))
			body.Uvarint(uint64(p.tf))
		}
	}

	var head wire.Writer
	head.Uvarint(uint64(body.Len()))
	if _, err := w.Write(head.Bytes()); err != nil {
		return 0, err
	}
	if _, err := w.Write(body.Bytes()); err != nil {
		return int64(head.Len()), err
	}
	return int64(head.Len() + body.Len()), nil
}

// ReadFromShared restores state serialized by WriteTo into an empty index
// by parsing the length-prefixed section in place from a shared
// wire.Reader — no section copy, and every term and document ID decodes as
// a zero-copy view of the reader's buffer. This is the bulk-load path for
// snapshot opens, where the buffer (a read file or an mmap'd snapshot) is
// owned by the structures built from it: skipping the section copy removes
// the largest single heap allocation of an open, which both shortens the
// open and shrinks the garbage the collector scans while it runs.
//
// Posting lists are rebuilt as capacity-limited windows into a single
// arena (a later Add copies-on-append, so the windows stay immutable), the
// per-document term-frequency slices that Delete needs are reconstituted
// from the postings, and the live document-frequency counters fall out of
// the same pass. When a shared Stats object is attached, the restored live
// documents' aggregate — document count, total length, per-term live
// frequencies — is contributed to it at the end, exactly matching a replay
// of the original Add sequence. A malformed or truncated section leaves
// the index and the shared Stats unchanged and returns an error.
func (ix *Index) ReadFromShared(rd *wire.Reader) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if len(ix.view.Load().docs) != 0 {
		return fmt.Errorf("bm25: ReadFromShared into non-empty index")
	}
	size := int(rd.Uvarint())
	sec := rd.Section(size)
	if err := rd.Err(); err != nil {
		return fmt.Errorf("bm25: snapshot section header: %w", err)
	}
	return ix.readBody(sec)
}

// readBody parses a WriteTo section body and commits it by publishing a
// fresh view (mu held, index empty). The reader must span exactly the
// section body and be in shared mode: strings are retained as decoded.
func (ix *Index) readBody(rd *wire.Reader) error {
	cur := ix.view.Load()
	secLen := rd.Remaining()
	ndocs := int(rd.Uvarint())
	// Every document costs at least a few bytes, so a count exceeding the
	// section size is malformed — reject before allocating for it.
	if ndocs < 0 || ndocs > secLen {
		return fmt.Errorf("bm25: snapshot section claims %d docs in %d bytes", ndocs, secLen)
	}
	docs := make([]docInfo, ndocs)
	// offs are per-document windows into the term-frequency arena, sized
	// from the stored distinct-term counts; the postings pass below fills
	// them in sorted-term order, restoring the docInfo.tf invariant.
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
	// A restore assigns slots from scratch, so it starts a fresh term-table
	// lineage rather than reusing the empty index's table.
	terms := newTermTable()
	plists := make([]*termPostings, 0, nterms)
	// The live document-frequency aggregate accumulates as a slice (terms
	// arrive sorted); whether it becomes a local df slice, a shared-Stats
	// contribution or a parked pending aggregate is decided at commit.
	agg := make([]termFreq, 0, nterms)
	var df []int32
	if cur.stats == nil && !ix.deferStats {
		df = make([]int32, 0, nterms)
	}
	arena := make([]posting, 0, total)
	tfArena := make([]termFreq, total)
	fill := make([]int32, ndocs)
	for i := 0; i < nterms && rd.Err() == nil; i++ {
		term := rd.String()
		np := int(rd.Uvarint())
		if np < 0 || np > total-len(arena) {
			return fmt.Errorf("bm25: snapshot term %q claims %d postings", term, np)
		}
		start := len(arena)
		live := 0
		for j := 0; j < np; j++ {
			doc := int(rd.Uvarint())
			tf := int(rd.Uvarint())
			if doc < 0 || doc >= ndocs || tf <= 0 {
				return fmt.Errorf("bm25: snapshot term %q has invalid posting (doc %d, tf %d)", term, doc, tf)
			}
			if offs[doc]+fill[doc] >= offs[doc+1] {
				return fmt.Errorf("bm25: snapshot doc %d has more postings than declared terms", doc)
			}
			arena = append(arena, posting{doc: doc, tf: tf})
			tfArena[offs[doc]+fill[doc]] = termFreq{term: term, tf: tf}
			fill[doc]++
			if !docs[doc].deleted {
				live++
			}
		}
		// Capacity-limited window: appending to this term's list later
		// reallocates instead of stomping the next term's postings.
		terms.intern(term, int32(len(plists)))
		tp := &termPostings{}
		window := arena[start:len(arena):len(arena)]
		tp.data.Store(&window)
		plists = append(plists, tp)
		if df != nil {
			df = append(df, int32(live))
		}
		if live > 0 {
			agg = append(agg, termFreq{term: term, tf: live})
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

	// Commit: build the restored view and publish it in one swap.
	v := &lexView{terms: terms, plists: plists, docs: docs, df: df, stats: cur.stats}
	byID := make(map[string]int, ndocs)
	for slot := range docs {
		d := &docs[slot]
		if d.deleted {
			continue
		}
		byID[d.id] = slot
		v.totalLen += d.length
		v.liveDocs++
	}
	ix.byID = byID
	switch {
	case v.stats != nil:
		v.stats.addAggregate(agg, v.liveDocs, v.totalLen)
	case ix.deferStats:
		ix.pendingAgg = agg
	}
	ix.view.Store(v)
	return nil
}

// DeferStats marks an empty index for a two-phase restore: a following
// ReadFromShared parks the live document-frequency aggregate instead of
// materializing the local df slice, and AttachStats later folds it
// straight into the shared Stats object. The index scores no results until
// AttachStats is called (it has neither local nor shared statistics); the
// snapshot loader uses this to both defer shared-state mutation until the
// whole snapshot validates and to skip building throwaway local counters
// per shard.
func (ix *Index) DeferStats() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.deferStats = true
}

// AttachStats connects an index built against its own local statistics to
// a shared corpus Stats object: the live documents' aggregate (document
// count, total token length, per-term live document frequencies) is
// contributed to st and the local counters are dropped, after which the
// index scores exactly as if it had been created with NewWithStats. The
// snapshot loader uses this to defer shared-state mutation until an
// entire multi-section snapshot has validated — a half-parsed snapshot
// must never leave its document frequencies behind in the corpus totals.
// Calling it on an index that already has a Stats attached is a no-op.
func (ix *Index) AttachStats(st *Stats) {
	if st == nil {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	cur := ix.view.Load()
	if cur.stats != nil {
		return
	}
	if ix.pendingAgg != nil {
		// Deferred restore: the parked aggregate folds straight in.
		st.addAggregate(ix.pendingAgg, cur.liveDocs, cur.totalLen)
		ix.pendingAgg = nil
	} else {
		// The local df slice is by construction exactly the live
		// documents' per-term aggregate, so it folds into the shared
		// totals in one pass.
		agg := make([]termFreq, 0, len(cur.df))
		cur.terms.forEach(len(cur.plists), func(term string, slot int32) {
			if n := cur.df[slot]; n > 0 {
				agg = append(agg, termFreq{term: term, tf: int(n)})
			}
		})
		st.addAggregate(agg, cur.liveDocs, cur.totalLen)
	}
	v := *cur
	v.stats = st
	v.df = nil
	ix.deferStats = false
	ix.view.Store(&v)
}

// AdoptFrom atomically replaces this index's contents with donor's: the
// published view and the writer state (ID map, batch stamps) move over.
// The donor is expected to be a shadow rebuilt in local-statistics mode
// over this index's live documents (background segment compaction builds
// it that way so the rebuild never touches the shared Stats object, whose
// counts already reflect exactly those documents). If this index scores
// against a shared Stats, the adopted view is re-pointed at it and the
// donor's local document-frequency slice is dropped — ranking is unchanged
// because the shared counts and the donor's local counts describe the same
// corpus. Readers are never blocked; the donor must not be used afterwards.
func (ix *Index) AdoptFrom(donor *Index) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	donor.mu.Lock()
	defer donor.mu.Unlock()
	v := *donor.view.Load()
	if st := ix.view.Load().stats; st != nil {
		v.stats = st
		v.df = nil
	}
	ix.byID = donor.byID
	ix.batch = donor.batch
	ix.pubDocs = donor.pubDocs
	ix.docsBatch = donor.docsBatch
	ix.dfBatch = donor.dfBatch
	ix.publish(&v)
}
