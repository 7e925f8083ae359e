package retriever

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"time"

	"pneuma/internal/docs"
	"pneuma/internal/wire"
)

// Background segment compaction.
//
// The inline compaction path (diskBackend.compact) rewrites the segment
// and rebuilds the shard's in-memory state while the caller holds the
// shard's writer lock — every concurrent writer stalls for the whole
// rewrite, which grows with corpus size. The background path moves that
// work onto the group-commit flusher goroutine and takes the lock only in
// short slices, so a large compaction never stalls a writer for more than
// one slice's work:
//
//  1. Pin (locked, O(1)): drain the segment write buffer, record the
//     current segment extent as the pin point, and pin the HNSW view's
//     live set. Everything below the pin point is frozen in the pinned
//     view; everything after it will be replayed in phase 3.
//  2. Shadow build (off-lock): walk the pinned live set in chunks,
//     inserting each chunk into a fresh shadow memoryBackend and
//     appending the same records to a tmp segment under the bumped
//     generation. Between chunks the goroutine yields and services
//     pending group-commit fsyncs (it *is* the flusher, so nobody else
//     would). Writers keep appending to the live shard throughout.
//  3. Catch-up (mostly off-lock): in rounds, briefly take the lock to
//     drain the write buffer, then — unlocked — read the newly flushed
//     byte range straight off the segment file, raw-copy each record to
//     the tmp segment and replay it into the shadow. Each round shrinks
//     the un-replayed tail; the loop stops when a round catches up
//     completely or stops making progress.
//  4. Commit (locked, small): replay whatever trickled in since the last
//     round, fsync the tmp segment (the bulk was already fsynced
//     off-lock), rename it over the live segment, swap the file handle,
//     and graft the shadow's HNSW/BM25 state into the live backend via
//     AdoptFrom — an O(1) pointer adoption, not a rebuild. Searches
//     in flight keep their pinned pre-compaction views.
//
// The invariant that makes this safe is the same one the inline path
// relies on: at every step the shadow state is exactly what replaying the
// tmp segment would build, because both are fed the same records in the
// same order — phase 2 writes exactly what it inserts (even when a
// concurrent re-add makes the document store momentarily newer than the
// pinned vector, both sides see the same pair), and phase 3 applies the
// very bytes it copies. The commit does not write a snapshot: the segment
// rename invalidates the old snapshot's generation, and the next
// Flush/Close writes a fresh one outside the stall-critical section.

// compactChunk is how many live documents phase 2 moves per lock-free
// slice: large enough to amortize per-batch copy-on-write in the shadow,
// small enough that the reads-first yield and the fsync service interval
// stay tight.
const compactChunk = 64

// compactCatchupRounds bounds phase 3: each round replays the bytes the
// previous one missed, so under any write rate that compaction can outrun,
// the tail shrinks geometrically; after this many rounds the remainder is
// replayed under the lock regardless.
const compactCatchupRounds = 8

// CompactionStats aggregates segment-compaction activity across a
// retriever's disk shards (all zero for the Memory backend).
type CompactionStats struct {
	// Runs counts completed compaction rewrites, inline and background.
	Runs uint64
	// Reclaimed counts dead records (superseded adds, deleted documents
	// and their tombstones) removed across all runs.
	Reclaimed int64
	// MaxStall is the longest any single compaction phase held a shard's
	// writer lock — the worst case a concurrent writer could have waited.
	// Inline compactions count their full duration.
	MaxStall time.Duration
}

// CompactionStats returns cumulative compaction counters across all
// shards (mirroring Fsyncs for group commit); Service.Stats and the
// server's /metrics report them. A background rewrite keeps MaxStall
// bounded by one catch-up slice; an inline one counts its whole duration.
func (r *Retriever) CompactionStats() CompactionStats {
	var cs CompactionStats
	for _, s := range r.shards {
		s.mu.Lock()
		if db, ok := s.be.(*diskBackend); ok {
			cs.Runs += db.compactRuns
			cs.Reclaimed += db.compactReclaim
			if db.compactMaxStall > cs.MaxStall {
				cs.MaxStall = db.compactMaxStall
			}
		}
		s.mu.Unlock()
	}
	return cs
}

// noteCompaction records one completed rewrite (shard lock held).
func (b *diskBackend) noteCompaction(reclaimed int64, stall time.Duration) {
	b.compactRuns++
	b.compactReclaim += reclaimed
	if stall > b.compactMaxStall {
		b.compactMaxStall = stall
	}
}

// scheduleCompactLocked marks the shard as wanting a background rewrite
// and wakes the flusher; if one is already scheduled or running it just
// returns the existing completion channel (shard lock held).
func (b *diskBackend) scheduleCompactLocked() chan struct{} {
	if b.compactDone == nil {
		b.compactWant = true
		b.compactDone = make(chan struct{})
		b.knobs.gc.signalCompact()
	}
	return b.compactDone
}

// flushLocked is Retriever.Flush's per-shard first half (shard lock
// held): surface parked flusher errors, fsync, and hand a due compaction
// to the flusher, returning a channel that closes when it commits (a
// Retriever always has the coordinator scheduleCompactLocked signals).
// The snapshot is deferred to finishFlushLocked when a rewrite is
// pending, because the rewrite is about to invalidate it.
func (b *diskBackend) flushLocked() (<-chan struct{}, error) {
	if err := b.takeAsyncErr(); err != nil {
		return nil, err
	}
	if err := b.syncSegment(); err != nil {
		return nil, err
	}
	if b.shouldCompact() {
		return b.scheduleCompactLocked(), nil
	}
	if b.segSize != b.snapSize {
		return nil, b.writeSnapshot()
	}
	return nil, nil
}

// finishFlushLocked is Retriever.Flush's per-shard second half, run after
// waiting out any background rewrite (shard lock held): surface a rewrite
// failure, and bring the snapshot current — records may have landed (or a
// whole compaction committed) since flushLocked, so the segment is synced
// again first to keep the snapshot's watermark inside the durable extent.
func (b *diskBackend) finishFlushLocked() error {
	if err := b.takeAsyncErr(); err != nil {
		return err
	}
	if b.segSize != b.snapSize {
		if err := b.syncSegment(); err != nil {
			return err
		}
		return b.writeSnapshot()
	}
	return nil
}

// compactPendingShards runs scheduled background compactions, one shard at
// a time (flusher goroutine only).
func (r *Retriever) compactPendingShards() {
	for _, s := range r.shards {
		s.mu.Lock()
		db, ok := s.be.(*diskBackend)
		want := ok && db.compactWant
		s.mu.Unlock()
		if want {
			r.compactShard(s, db)
		}
	}
}

// drainSyncs services pending group-commit fsyncs from inside a running
// compaction: the compaction occupies the flusher goroutine, so without
// this the latency bound would stretch to the length of the rewrite.
func (r *Retriever) drainSyncs() {
	g := r.gc
	if g == nil || !g.sync {
		return
	}
	select {
	case <-g.notify:
		select {
		case <-g.kick:
		default:
		}
		r.syncPendingShards()
	default:
	}
}

// compactShard is the background rewrite described at the top of the
// file. It runs on the flusher goroutine; all shared state it touches is
// accessed in short shard-locked slices, each measured as writer stall.
func (r *Retriever) compactShard(s *shard, db *diskBackend) {
	g := r.gc
	var maxStall time.Duration
	stallSince := func(t0 time.Time) {
		if d := time.Since(t0); d > maxStall {
			maxStall = d
		}
	}
	// finish completes the run under the lock whatever happened: park err
	// for the next Flush/Close, clear the schedule, release waiters.
	finish := func(err error) {
		s.mu.Lock()
		if err != nil && db.compactErr == nil {
			db.compactErr = err
		}
		db.compactWant = false
		if db.compactDone != nil {
			close(db.compactDone)
			db.compactDone = nil
		}
		s.mu.Unlock()
	}

	// Phase 1: pin. Drain the write buffer so the file holds every record
	// below the pin point, then pin the live set those records built.
	s.mu.Lock()
	if !db.shouldCompact() {
		// A Flush raced in and compacted inline, or deletes were undone by
		// re-adds; nothing to do.
		s.mu.Unlock()
		finish(nil)
		return
	}
	t0 := time.Now()
	if err := db.w.Flush(); err != nil {
		s.mu.Unlock()
		finish(err)
		return
	}
	db.flushed = db.segSize
	base := db.segSize
	gen := db.gen
	walk := db.vec.PinLive()
	stallSince(t0)
	s.mu.Unlock()

	// Phase 2: shadow build. The shadow scores BM25 against local
	// statistics (nil Stats): the live documents' contributions are
	// already in the shared Stats object, and AdoptFrom re-points the
	// adopted view at it, so the rebuild must not count them again.
	shadow := newMemoryBackend(db.dim, db.seed, nil, db.ef, db.quant)
	tmp := db.path + ".tmp"
	tf, err := os.Create(tmp)
	if err != nil {
		finish(err)
		return
	}
	defer os.Remove(tmp) // no-op once renamed
	tmpOpen := true
	defer func() {
		if tmpOpen {
			tf.Close()
		}
	}()
	tw := bufio.NewWriterSize(tf, 1<<20)
	if err := writeSegHeader(tw, gen+1); err != nil {
		finish(err)
		return
	}
	size := int64(segHeaderSize)
	var recs int64
	var rec, frame wire.Writer

	bds := make([]docs.Document, 0, compactChunk)
	bvecs := make([][]float32, 0, compactChunk)
	flushChunk := func() error {
		if len(bds) == 0 {
			return nil
		}
		if err := shadow.IndexBatch(bds, bvecs); err != nil {
			return err
		}
		for i, d := range bds {
			rec.Reset()
			rec.Byte(opAdd)
			rec.String(d.ID)
			rec.Float32s(bvecs[i])
			encodeDoc(&rec, d)
			n, err := writeFramedRecord(tw, &frame, rec.Bytes())
			if err != nil {
				return err
			}
			size += n
			recs++
		}
		bds, bvecs = bds[:0], bvecs[:0]
		// Reads-first yield, and keep group commit honest while this
		// goroutine is busy here.
		r.drainSyncs()
		runtime.Gosched()
		return nil
	}
	var werr error
	aborted := false
	walk(func(id string, vec []float32) bool {
		select {
		case <-g.done:
			aborted = true
			return false
		default:
		}
		d, ok := db.Document(id)
		if !ok {
			// Deleted since the pin. Skipping the add keeps the shadow ≡
			// replay(tmp) invariant: the tombstone record past the pin
			// point is raw-copied in phase 3 and no-ops on both sides.
			return true
		}
		bds = append(bds, d)
		bvecs = append(bvecs, vec)
		if len(bds) == compactChunk {
			werr = flushChunk()
			return werr == nil
		}
		return true
	})
	if aborted {
		// Close is tearing the retriever down; its inline Flush handles
		// any still-due compaction.
		finish(nil)
		return
	}
	if werr == nil {
		werr = flushChunk()
	}
	if werr != nil {
		finish(werr)
		return
	}

	// Phase 3: catch-up. applyFlushed raw-copies the segment's flushed
	// byte range [lo, hi) — whole records by construction — into the tmp
	// segment while replaying each into the shadow. Reads use ReadAt
	// (positionless) so they never race the writer's appends; bytes below
	// db.flushed are immutable.
	applyFlushed := func(lo, hi int64) error {
		buf := make([]byte, hi-lo)
		if _, err := db.f.ReadAt(buf, lo); err != nil {
			return err
		}
		for off := 0; off < len(buf); {
			plen, n := binary.Uvarint(buf[off:])
			if n <= 0 || off+n+int(plen)+4 > len(buf) {
				return fmt.Errorf("retriever: compact: torn record in flushed range of %s", db.path)
			}
			payload := buf[off+n : off+n+int(plen)]
			total := n + int(plen) + 4
			if _, err := tw.Write(buf[off : off+total]); err != nil {
				return err
			}
			ok, err := applyRecord(shadow, payload)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("retriever: compact: undecodable record in flushed range of %s", db.path)
			}
			off += total
			size += int64(total)
			recs++
		}
		return nil
	}
	cursor := base
	for round := 0; round < compactCatchupRounds; round++ {
		s.mu.Lock()
		t0 = time.Now()
		err := db.w.Flush()
		if err == nil {
			db.flushed = db.segSize
		}
		hi := db.flushed
		stallSince(t0)
		s.mu.Unlock()
		if err != nil {
			finish(err)
			return
		}
		if hi == cursor {
			break
		}
		if err := applyFlushed(cursor, hi); err != nil {
			finish(err)
			return
		}
		cursor = hi
		r.drainSyncs()
	}

	// Fsync the bulk of the tmp segment before taking the lock, so the
	// in-lock fsync below covers only the final trickle.
	if err := tw.Flush(); err != nil {
		finish(err)
		return
	}
	if err := tf.Sync(); err != nil {
		finish(err)
		return
	}

	// Phase 4: commit.
	s.mu.Lock()
	t0 = time.Now()
	before := db.records
	err = func() error {
		if err := db.w.Flush(); err != nil {
			return err
		}
		db.flushed = db.segSize
		if hi := db.flushed; hi > cursor {
			if err := applyFlushed(cursor, hi); err != nil {
				return err
			}
			cursor = hi
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		if err := tf.Sync(); err != nil {
			return err
		}
		tmpOpen = false
		if err := tf.Close(); err != nil {
			return err
		}
		if err := os.Rename(tmp, db.path); err != nil {
			return err
		}
		if err := db.swapSegment(size, recs); err != nil {
			return err
		}
		// Graft the shadow into the live backend: O(1) pointer adoption
		// published by atomic view swap, so readers never see a half
		// state. The document store and live counter need no adoption —
		// writers kept them current throughout.
		db.vec.AdoptFrom(shadow.vec)
		db.lex.AdoptFrom(shadow.lex)
		db.noteCompaction(before-recs, 0)
		return nil
	}()
	stallSince(t0)
	if err == nil {
		if maxStall > db.compactMaxStall {
			db.compactMaxStall = maxStall
		}
	}
	s.mu.Unlock()
	finish(err)
}
