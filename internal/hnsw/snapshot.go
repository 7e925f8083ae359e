package hnsw

import (
	"fmt"

	"pneuma/internal/wire"
)

// AppendSnapshot serializes the index's struct-of-arrays state — the
// id/level/tombstone slices, the adjacency lists, the entry point, the
// level-generator draw count, and the vector arenas — into w. The small
// variable-width fields come first; the bulk arrays (norms, the float32
// arena and, when Quantize is on, the int8 arenas) are written as
// wire aligned blobs, padded relative to the *writer start*. Callers that
// want the blobs mmap-addressable must therefore hand in a writer whose
// offset 0 lands at file offset 0 (the retriever's snapshot writer does).
//
// The view and the level-generator draw count are pinned together under a
// brief writer-lock acquisition; serialization then runs entirely against
// the immutable view, concurrent with both readers and later writers, so
// snapshotting never stalls serving.
//
// An index restored by LoadSnapshot is bit-identical: it answers every
// query with the same results and assigns the same levels to future
// inserts. Construction parameters (M, EfConstruction, EfSearch, Seed,
// Quantize) are NOT serialized; the reading index must be created with a
// compatible Config — Quantize may differ, in which case the quantized
// arenas are dropped or rebuilt from the float32 arena at load.
func (ix *Index) AppendSnapshot(w *wire.Writer) {
	// Pin a (view, rngDraws) pair from a quiesced writer state: between
	// batches the draw count is exactly the one that produced the
	// published view.
	ix.mu.Lock()
	g := ix.view.Load()
	draws := ix.rngDraws
	ix.mu.Unlock()

	n := len(g.ids)
	w.Uvarint(uint64(g.dim))
	w.Uvarint(uint64(n))
	for _, id := range g.ids {
		w.String(id)
	}
	for _, lvl := range g.levels {
		w.Uvarint(uint64(lvl))
	}
	for _, d := range g.deleted {
		if d {
			w.Byte(1)
		} else {
			w.Byte(0)
		}
	}
	for _, layers := range g.links {
		w.Uvarint(uint64(len(layers)))
		for _, nbs := range layers {
			w.Uvarint(uint64(len(nbs)))
			for _, nb := range nbs {
				w.Uvarint(uint64(nb))
			}
		}
	}
	w.Varint(int64(g.entry))
	w.Varint(int64(g.maxLvl))
	w.Uvarint(uint64(g.live))
	w.Uvarint(draws)
	if g.quant {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
	w.Float32Blob(g.norms)
	w.Float32Blob(g.vecs)
	if g.quant {
		w.Float32Blob(g.qscale)
		w.Float32Blob(g.qoff)
		w.Int32Blob(g.qsum)
		w.Int8Blob(g.qvecs)
	}
}

// LoadSnapshot restores state appended by AppendSnapshot into an empty
// index. The reader must be a shared reader over a buffer whose start
// corresponds to the writer's start (so blob alignment lines up); for a
// shared reader on a little-endian host the restored arenas are zero-copy
// views into that buffer — an mmap'd snapshot pages them in lazily, and
// the buffer must outlive the index (see the package comment's mmap
// caveats). The level generator is fast-forwarded to the writer's draw
// count, so inserts after the restore build exactly the graph the writing
// index would have built; appends to the zero-copy arenas reallocate
// (len == cap), never scribbling on the buffer. A malformed or truncated
// section leaves the index unchanged and returns an error.
func (ix *Index) LoadSnapshot(rd *wire.Reader) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if len(ix.view.Load().ids) != 0 {
		return fmt.Errorf("hnsw: LoadSnapshot into non-empty index")
	}

	dim := int(rd.Uvarint())
	n := int(rd.Uvarint())
	if rd.Err() == nil && dim != ix.dim {
		return fmt.Errorf("hnsw: snapshot has dim %d, index wants %d", dim, ix.dim)
	}
	// Every node costs at least a few bytes, so a count exceeding the
	// remaining section is malformed — reject before allocating for it.
	if n < 0 || n > rd.Remaining() {
		return fmt.Errorf("hnsw: snapshot section claims %d nodes in %d bytes", n, rd.Remaining())
	}
	ids := make([]string, n)
	for i := range ids {
		ids[i] = rd.String()
	}
	levels := make([]int32, n)
	for i := range levels {
		levels[i] = int32(rd.Uvarint())
	}
	deleted := make([]bool, n)
	for i := range deleted {
		deleted[i] = rd.Byte() != 0
	}
	links := make([][][]int32, n)
	for i := range links {
		nl := int(rd.Uvarint())
		if nl < 0 || nl > rd.Remaining() {
			return fmt.Errorf("hnsw: snapshot section claims %d layers in %d bytes", nl, rd.Remaining())
		}
		layers := make([][]int32, nl)
		for l := range layers {
			cnt := int(rd.Uvarint())
			if cnt < 0 || cnt > rd.Remaining() {
				return fmt.Errorf("hnsw: snapshot section claims %d links in %d bytes", cnt, rd.Remaining())
			}
			nbs := make([]int32, cnt)
			for j := range nbs {
				nbs[j] = int32(rd.Uvarint())
			}
			layers[l] = nbs
		}
		links[i] = layers
	}
	entry := int(rd.Varint())
	maxLvl := int(rd.Varint())
	live := int(rd.Uvarint())
	draws := rd.Uvarint()
	quant := rd.Byte() != 0
	norms := rd.Float32Blob()
	vecs := rd.Float32Blob()
	var qscale, qoff []float32
	var qsum []int32
	var qvecs []int8
	if quant {
		qscale = rd.Float32Blob()
		qoff = rd.Float32Blob()
		qsum = rd.Int32Blob()
		qvecs = rd.Int8Blob()
	}
	if err := rd.Err(); err != nil {
		return fmt.Errorf("hnsw: snapshot section: %w", err)
	}
	if len(norms) != n || len(vecs) != n*ix.dim || live > n || entry >= n {
		return fmt.Errorf("hnsw: snapshot section inconsistent (n=%d norms=%d vecs=%d live=%d entry=%d)",
			n, len(norms), len(vecs), live, entry)
	}
	if quant && (len(qscale) != n || len(qoff) != n || len(qsum) != n || len(qvecs) != n*ix.dim) {
		return fmt.Errorf("hnsw: snapshot quantized arenas inconsistent (n=%d qscale=%d qoff=%d qsum=%d qvecs=%d)",
			n, len(qscale), len(qoff), len(qsum), len(qvecs))
	}

	g := &graph{
		dim:     ix.dim,
		ids:     ids,
		levels:  levels,
		deleted: deleted,
		norms:   norms,
		vecs:    vecs,
		links:   links,
		entry:   entry,
		maxLvl:  maxLvl,
		live:    live,
	}
	if ix.cfg.Quantize {
		if quant {
			g.qscale, g.qoff, g.qsum, g.qvecs = qscale, qoff, qsum, qvecs
		} else {
			// Snapshot written without quantization: rebuild the int8
			// arenas from the float32 arena (same codes an insert would have
			// produced — quantizeVec is deterministic).
			requantize(g)
		}
	}
	byID := make(map[string]int, live)
	for i, id := range ids {
		if !deleted[i] {
			byID[id] = i
		}
	}
	ix.byID = byID
	// The loaded slots were never COW'd by any batch; stamp them 0 (no
	// batch) so the first mutating batch copies before touching them.
	ix.copied = make([]uint64, n)
	// Replay the level generator's consumed draws so the next insert sees the
	// same stream position a never-serialized index would.
	for ix.rngDraws < draws {
		ix.rngDraws++
		ix.rng.Float64()
	}
	ix.publish(g)
	return nil
}

// PinLive pins the view current at call time and returns a walker over
// its live nodes, decoupling the pin from the walk: background compaction
// pins under the shard writer lock (freezing exactly which inserts the
// shadow rebuild will see) and then walks off-lock, possibly much later
// and in chunks, while concurrent writers keep publishing newer views.
// The walker visits every live (non-tombstoned) node in insertion order,
// passing its external ID and vector; the vector aliases the pinned
// arena, so callers must copy it to retain it past the callback. The walk
// stops early when fn returns false. The walker may be invoked
// repeatedly; each invocation walks the same frozen view.
func (ix *Index) PinLive() func(fn func(id string, vec []float32) bool) {
	g := ix.view.Load()
	return func(fn func(id string, vec []float32) bool) {
		for i := range g.ids {
			if g.deleted[i] {
				continue
			}
			if !fn(g.ids[i], g.vecAt(i)) {
				return
			}
		}
	}
}
