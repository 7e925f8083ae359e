package retriever

import "time"

// DefaultSyncInterval is the group-commit latency bound used when a sync
// policy is enabled (WithSyncBytes) without an explicit
// WithSyncInterval: an appended record is fsynced at most this long after
// the append, batched with everything else that arrived in the window.
const DefaultSyncInterval = 2 * time.Millisecond

// groupCommit coordinates durability between the shard writers and the
// retriever's single flusher goroutine. Writers never fsync inline: they
// bump their shard's pending counters under the shard lock, then poke the
// flusher through the (non-blocking, capacity-1) channels. The flusher
// waits out the latency bound — or syncs immediately when a threshold
// trips — and pays one fsync per shard for the whole batch, so N
// concurrent writers share a single disk barrier instead of issuing N.
type groupCommit struct {
	// sync reports whether a durability trigger is configured. The
	// coordinator now exists for every Disk retriever — its goroutine is
	// also where background compaction runs — but without a sync policy
	// the writers never enqueue pending-fsync work and durability stays at
	// Flush/Close, exactly the pre-group-commit default.
	sync bool
	// Trigger thresholds: bytes fires on pending payload bytes, interval
	// is the latency bound started by the first pending record.
	bytes    int64
	interval time.Duration

	notify  chan struct{} // ≥1 record pending somewhere
	kick    chan struct{} // a count/byte threshold tripped: sync now
	compact chan struct{} // ≥1 shard scheduled a background compaction
	done    chan struct{} // closed by Close: flush once more and exit
	stopped chan struct{} // closed by the flusher on exit
}

// newGroupCommit resolves the configured knobs into a trigger set.
func newGroupCommit(bytes int64, interval time.Duration) *groupCommit {
	g := &groupCommit{
		sync:     bytes > 0 || interval > 0,
		bytes:    bytes,
		interval: interval,
		notify:   make(chan struct{}, 1),
		kick:     make(chan struct{}, 1),
		compact:  make(chan struct{}, 1),
		done:     make(chan struct{}),
		stopped:  make(chan struct{}),
	}
	if g.sync && g.interval <= 0 {
		g.interval = DefaultSyncInterval
	}
	return g
}

// signal wakes the flusher; trip requests an immediate sync instead of
// waiting out the latency bound. Non-blocking — a token already in the
// channel carries the same information.
func (g *groupCommit) signal(trip bool) {
	select {
	case g.notify <- struct{}{}:
	default:
	}
	if trip {
		select {
		case g.kick <- struct{}{}:
		default:
		}
	}
}

// signalCompact wakes the flusher to run scheduled background
// compactions. Non-blocking; the per-shard compactWant flags (set under
// the shard locks before this is called) carry which shards need work, so
// one token is never a lost wakeup.
func (g *groupCommit) signalCompact() {
	select {
	case g.compact <- struct{}{}:
	default:
	}
}

// tripped reports whether the pending bytes cross the configured
// threshold (called by writers under their shard lock).
func (g *groupCommit) tripped(pendingBytes int64) bool {
	return g.bytes > 0 && pendingBytes >= g.bytes
}

// flusher is the single group-commit goroutine: it sleeps until a writer
// signals pending data, waits out the latency bound (cut short by a
// threshold kick), then fsyncs every shard with pending records. On Close
// it performs one final sweep so nothing acknowledged to a writer is left
// unsynced. Sync errors are parked on the shard (diskBackend.syncErr) and
// surface from the next Flush/Close — the writer that triggered the batch
// has already returned, which is the documented durability trade of the
// latency-bound window.
//
// The same goroutine runs background segment compaction (see compact.go):
// a compaction signal starts an incremental rewrite that takes the shard
// lock only in short slices, servicing pending fsyncs between slices so
// the latency bound survives a long rewrite.
func (r *Retriever) flusher() {
	g := r.gc
	defer close(g.stopped)
	for {
		select {
		case <-g.done:
			r.syncPendingShards()
			return
		case <-g.compact:
			r.compactPendingShards()
			continue
		case <-g.notify:
		}
		t := time.NewTimer(g.interval)
		select {
		case <-g.done:
			t.Stop()
			r.syncPendingShards()
			return
		case <-g.kick:
			t.Stop()
		case <-t.C:
		}
		r.syncPendingShards()
	}
}

// syncPendingShards fsyncs every disk shard that has records appended
// since its last sync. One fsync covers the whole pending batch.
func (r *Retriever) syncPendingShards() {
	for _, s := range r.shards {
		s.mu.Lock()
		if db, ok := s.be.(*diskBackend); ok && db.pendingRecs > 0 {
			if err := db.syncSegment(); err != nil && db.syncErr == nil {
				db.syncErr = err
			}
		}
		s.mu.Unlock()
	}
}

// Fsyncs returns the cumulative number of segment-file fsyncs across all
// disk shards (0 for the Memory backend), reported by Service.Stats and
// the server's /metrics. Under a group-commit policy N writers share one
// barrier, so it grows slower than the record count; it also counts the
// syncs issued by Flush/Close and the deprecated count-based trigger.
func (r *Retriever) Fsyncs() uint64 {
	var n uint64
	for _, s := range r.shards {
		s.mu.Lock()
		if db, ok := s.be.(*diskBackend); ok {
			n += db.fsyncs
		}
		s.mu.Unlock()
	}
	return n
}
