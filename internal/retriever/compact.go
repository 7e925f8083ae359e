package retriever

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pneuma/internal/docs"
	"pneuma/internal/wire"
)

// Segment compaction.
//
// A Disk shard's segment is an append-only log, so deletes and re-adds
// leave dead records behind. Once they make up DefaultCompactionRatio of
// the segment, the shard is rewritten to its live records — triggered from
// the write path (appendRecord), by Flush, or by Close, and always run by
// the same code: compactShard, on the retriever's one background
// goroutine, the compactor. It takes the shard's writer lock only in short
// slices, so a large compaction never stalls a writer for more than one
// slice's work:
//
//  1. Pin (locked, O(1)): drain the segment write buffer, record the
//     current segment extent as the pin point, and pin the HNSW view's
//     live set. Everything below the pin point is frozen in the pinned
//     view; everything after it will be replayed in phase 3.
//  2. Shadow build (off-lock): walk the pinned live set in chunks,
//     inserting each chunk into a fresh shadow memoryBackend and
//     appending the same records to a tmp segment under the bumped
//     generation. Between chunks the goroutine yields. Writers keep
//     appending to the live shard throughout.
//  3. Catch-up (mostly off-lock): in rounds, briefly take the lock to
//     drain the write buffer, then — unlocked — read the newly flushed
//     byte range straight off the segment file, raw-copy each record to
//     the tmp segment and replay it into the shadow. Each round shrinks
//     the un-replayed tail; the loop stops when a round catches up
//     completely or stops making progress.
//  4. Commit (locked, small): replay whatever trickled in since the last
//     round, fsync the tmp segment (the bulk was already fsynced
//     off-lock), rename it over the live segment and fsync the directory
//     (so appends acknowledged after the swap land in the file the
//     directory names after a crash), swap the file handle, and graft the
//     shadow's HNSW/BM25 state into the live shard index via AdoptFrom —
//     an O(1) pointer adoption, not a rebuild. Searches in flight keep
//     their pinned pre-compaction views.
//
// The invariant that makes this safe: at every step the shadow state is
// exactly what replaying the tmp segment would build, because both are fed
// the same records in the same order — phase 2 writes exactly what it
// inserts (even when a concurrent re-add makes the document store
// momentarily newer than the pinned vector, both sides see the same pair),
// and phase 3 applies the very bytes it copies. The graph is rebuilt
// without the tombstoned nodes, so afterwards results are those of a fresh
// index over the surviving documents. A delete or re-add that phases 3–4
// replay onto a document the shadow already holds would break that: HNSW
// cannot unlink a node, so the shadow would keep a tombstone a fresh build
// lacks, and searches would route through it. The attempt is then dropped
// before anything is renamed and the rewrite starts over at phase 1, whose
// new pin already excludes the document; after compactRetries restarts the
// attempt commits as it stands, so a sustained delete stream cannot starve
// compaction. The commit does not write a
// snapshot: the segment rename invalidates the old snapshot's generation,
// and the Flush or Close that waited for the rewrite writes a fresh one
// outside the stall-critical section.

// compactChunk is how many live documents phase 2 moves per lock-free
// slice: large enough to amortize per-batch copy-on-write in the shadow,
// small enough that the reads-first yield comes often.
const compactChunk = 64

// compactCatchupRounds bounds phase 3: each round replays the bytes the
// previous one missed, so under any write rate that compaction can outrun,
// the tail shrinks geometrically; after this many rounds the remainder is
// replayed under the lock regardless.
const compactCatchupRounds = 8

// compactRetries bounds how often one compaction starts over because a
// delete or re-add landed on a document its shadow had already built.
const compactRetries = 4

// CompactionStats aggregates segment-compaction activity across a
// retriever's disk shards (all zero for the Memory backend).
type CompactionStats struct {
	// Runs counts completed compaction rewrites.
	Runs uint64
	// Reclaimed counts dead records (superseded adds, deleted documents
	// and their tombstones) removed across all runs.
	Reclaimed int64
	// MaxStall is the longest any single compaction phase held a shard's
	// writer lock — the worst case a concurrent writer could have waited.
	MaxStall time.Duration
}

// CompactionStats returns cumulative compaction counters across all
// shards (beside Fsyncs); Service.Stats and the
// server's /metrics report them. The sliced rewrite keeps MaxStall
// bounded by one catch-up slice.
func (r *Retriever) CompactionStats() CompactionStats {
	var cs CompactionStats
	for _, s := range r.shards {
		s.mu.Lock()
		if db := s.log; db != nil {
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

// compactor is the retriever's one background goroutine (Disk only): it
// runs every scheduled compaction, one shard at a time, from Open to
// Close.
type compactor struct {
	compact chan struct{} // ≥1 shard scheduled a compaction
	done    chan struct{} // closed by Close: exit
	stopped chan struct{} // closed by the goroutine on exit
}

func newCompactor() *compactor {
	return &compactor{
		compact: make(chan struct{}, 1),
		done:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
}

// runCompactor is the compactor goroutine's body: on each wakeup it runs
// every scheduled compaction. Close stops it only after its flush has
// waited out every due rewrite, so exiting leaves no work behind.
func (r *Retriever) runCompactor() {
	c := r.compactor
	defer close(c.stopped)
	for {
		select {
		case <-c.done:
			return
		case <-c.compact:
		}
		for _, s := range r.shards {
			s.mu.Lock()
			want := s.log.compactWant
			s.mu.Unlock()
			if want {
				compactShard(s)
			}
		}
	}
}

// scheduleCompactLocked marks the shard as wanting a background rewrite
// and wakes the compactor; if one is already scheduled or running it just
// returns the existing completion channel (shard lock held). The wakeup
// does not block: a token already queued finds compactWant set too.
func (b *diskBackend) scheduleCompactLocked() chan struct{} {
	if b.compactDone == nil {
		b.compactWant = true
		b.compactDone = make(chan struct{})
		select {
		case b.compactor.compact <- struct{}{}:
		default:
		}
	}
	return b.compactDone
}

// flushLocked is flush's per-shard first half (shard lock held). A shard
// whose compaction is due is synced and handed to the compactor, and the
// returned channel closes when the rewrite finishes; its snapshot waits for
// the second half, because the rewrite is about to invalidate it. Any
// other shard is flushed completely here.
func (b *diskBackend) flushLocked() (<-chan struct{}, error) {
	if !b.shouldCompact() {
		return nil, b.Flush()
	}
	if err := b.takeParked(); err != nil {
		return nil, err
	}
	if err := b.syncSegment(); err != nil {
		return nil, err
	}
	return b.scheduleCompactLocked(), nil
}

// compactShard is the background rewrite described at the top of the
// file. It runs on the compactor goroutine, starting over while an attempt
// comes back stale, then parks any error for the next Flush/Close, clears
// the schedule and releases waiters, whatever happened.
func compactShard(s *shard) {
	db := s.log
	var maxStall time.Duration
	var err error
	for attempt := 0; ; attempt++ {
		var stale bool
		stale, err = compactOnce(s, &maxStall, attempt == compactRetries)
		if err != nil || !stale {
			break
		}
	}
	s.mu.Lock()
	db.park(err)
	db.compactWant = false
	if db.compactDone != nil {
		close(db.compactDone)
		db.compactDone = nil
	}
	s.mu.Unlock()
}

// compactOnce is one attempt at the rewrite. All shared state it touches
// is accessed in short shard-locked slices, each measured into maxStall as
// writer stall. It reports stale, having committed nothing, when the
// shadow holds a tombstoned node and last is false.
func compactOnce(s *shard, maxStall *time.Duration, last bool) (stale bool, err error) {
	db, live := s.log, s.mem
	stallSince := func(t0 time.Time) {
		if d := time.Since(t0); d > *maxStall {
			*maxStall = d
		}
	}

	// Phase 1: pin. Drain the write buffer so the file holds every record
	// below the pin point, then pin the live set those records built.
	s.mu.Lock()
	if !db.shouldCompact() {
		// Re-adds since the schedule brought the dead fraction back under
		// the threshold; nothing to do.
		s.mu.Unlock()
		return false, nil
	}
	t0 := time.Now()
	if err := db.w.Flush(); err != nil {
		s.mu.Unlock()
		return false, err
	}
	db.flushed = db.segSize
	base := db.segSize
	gen := db.gen
	walk := live.vec.PinLive()
	stallSince(t0)
	s.mu.Unlock()

	// Phase 2: shadow build. The shadow counts BM25 statistics into a
	// private Stats (nil here): the live documents' contributions are
	// already in the shared Stats object, and AdoptFrom re-points the
	// adopted view at it, so the rebuild must not count them again.
	shadow := newMemoryBackend(live.dim, live.seed, nil)
	tmp := db.path + ".tmp"
	tf, err := os.Create(tmp)
	if err != nil {
		return false, err
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
		return false, err
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
			encodeAddRecord(&rec, d, bvecs[i])
			n, err := writeFramedRecord(tw, &frame, rec.Bytes())
			if err != nil {
				return err
			}
			size += n
			recs++
		}
		bds, bvecs = bds[:0], bvecs[:0]
		runtime.Gosched() // reads first
		return nil
	}
	var werr error
	walk(func(id string, vec []float32) bool {
		d, ok := live.Document(id)
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
	if werr == nil {
		werr = flushChunk()
	}
	if werr != nil {
		return false, werr
	}

	// Phase 3: catch-up. applyFlushed replays the segment's flushed byte
	// range [lo, hi) — whole records by construction — into the shadow
	// through the same frame reader Open replays with, and copies the
	// bytes it applied raw into the tmp segment. A range the reader stops
	// short in fails the compaction: a replay of the tmp segment would
	// stop at the same frame. Reads use ReadAt (positionless) so they
	// never race the writer's appends; bytes below db.flushed are
	// immutable.
	applyFlushed := func(lo, hi int64) error {
		buf := make([]byte, hi-lo)
		if _, err := db.f.ReadAt(buf, lo); err != nil {
			return err
		}
		n, applied, err := replayFrames(bytes.NewReader(buf), shadow)
		if err != nil {
			return err
		}
		if n != hi-lo {
			return fmt.Errorf("retriever: compact: bad record at offset %d in flushed range of %s", lo+n, db.path)
		}
		if _, err := tw.Write(buf); err != nil {
			return err
		}
		size += n
		recs += applied
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
			return false, err
		}
		if hi == cursor {
			break
		}
		if err := applyFlushed(cursor, hi); err != nil {
			return false, err
		}
		cursor = hi
	}
	if !last && shadow.vec.Tombstones() > 0 {
		return true, nil
	}

	// Fsync the bulk of the tmp segment before taking the lock, so the
	// in-lock fsync below covers only the final trickle.
	if err := tw.Flush(); err != nil {
		return false, err
	}
	if err := tf.Sync(); err != nil {
		return false, err
	}

	// Phase 4: commit.
	s.mu.Lock()
	t0 = time.Now()
	before := db.records
	stale, err = func() (bool, error) {
		if err := db.w.Flush(); err != nil {
			return false, err
		}
		db.flushed = db.segSize
		if hi := db.flushed; hi > cursor {
			if err := applyFlushed(cursor, hi); err != nil {
				return false, err
			}
			cursor = hi
		}
		if !last && shadow.vec.Tombstones() > 0 {
			return true, nil
		}
		if err := tw.Flush(); err != nil {
			return false, err
		}
		if err := tf.Sync(); err != nil {
			return false, err
		}
		tmpOpen = false
		if err := tf.Close(); err != nil {
			return false, err
		}
		if err := os.Rename(tmp, db.path); err != nil {
			return false, err
		}
		if err := syncDir(filepath.Dir(db.path)); err != nil {
			return false, err
		}
		if err := db.swapSegment(size, recs); err != nil {
			return false, err
		}
		// Graft the shadow into the live index: O(1) pointer adoption
		// published by atomic view swap, so readers never see a half
		// state. The document store and live counter need no adoption —
		// writers kept them current throughout.
		live.vec.AdoptFrom(shadow.vec)
		live.lex.AdoptFrom(shadow.lex)
		return false, nil
	}()
	stallSince(t0)
	if err == nil && !stale {
		db.noteCompaction(before-recs, *maxStall)
	}
	s.mu.Unlock()
	return stale, err
}
