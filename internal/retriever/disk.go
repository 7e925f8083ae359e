package retriever

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"pneuma/internal/bm25"
	"pneuma/internal/docs"
	"pneuma/internal/wire"
)

// manifestName is the per-index metadata file written next to the segment
// files. It pins the shard count, embedding dimensionality and segment
// format so a reopen routes documents to the same shards they were
// written to and decodes them with the right codec.
const manifestName = "manifest.json"

// segFormat is the current segment/snapshot format generation, the only
// one this build reads. Any other manifest format — below (format 0, a
// manifest written before the field existed, is the JSON-lines log of
// PR 2) or above (a newer build) — fails Open with a typed corruption
// error and leaves the directory untouched.
const segFormat = 2

// manifest is the durable index metadata.
type manifest struct {
	Shards int `json:"shards"`
	Dim    int `json:"dim"`
	// Format is the segment codec generation (see segFormat). Absent in
	// pre-binary manifests, which unmarshal it as 0.
	Format int `json:"format"`
}

// loadOrCreateManifest reads dir's manifest, or writes a fresh one with the
// given shape if none exists. The returned manifest is authoritative: on
// reopen its shard count overrides the caller's, because hash routing must
// match the layout the segments were written under.
func loadOrCreateManifest(dir string, shards, dim int) (manifest, error) {
	path := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(path)
	if err == nil {
		var m manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			return manifest{}, fmt.Errorf("retriever: corrupt manifest %s: %w", path, err)
		}
		if m.Shards < 1 {
			return manifest{}, fmt.Errorf("retriever: manifest %s has invalid shard count %d", path, m.Shards)
		}
		if m.Dim != dim {
			return manifest{}, fmt.Errorf("retriever: index at %s was built with embedding dim %d, embedder wants %d", dir, m.Dim, dim)
		}
		if m.Format < segFormat {
			return manifest{}, fmt.Errorf("retriever: index at %s: index format %d predates this build; delete the directory to rebuild", dir, m.Format)
		}
		if m.Format > segFormat {
			return manifest{}, fmt.Errorf("retriever: index at %s uses segment format %d, this build supports up to %d", dir, m.Format, segFormat)
		}
		return m, nil
	}
	if !os.IsNotExist(err) {
		return manifest{}, err
	}
	m := manifest{Shards: shards, Dim: dim, Format: segFormat}
	if err := writeManifest(dir, m); err != nil {
		return manifest{}, err
	}
	return m, nil
}

// writeManifest persists the index metadata atomically (tmp + fsync +
// rename): the manifest pins the shard routing for the whole directory,
// so a crash mid-write must leave either no manifest or a whole one,
// never a torn one.
func writeManifest(dir string, m manifest) error {
	raw, err := json.Marshal(m)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, manifestName)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer os.Remove(tmp)
	if _, err := f.Write(raw); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Segment record op bytes.
const (
	opAdd = 1
	opDel = 2
)

// Segment file header: magic, format word and a generation counter that
// changes on every compaction rewrite, tying a snapshot to the exact
// segment file it covers (a snapshot whose generation does not match the
// segment is stale — e.g. a crash landed between a compaction's rename
// and its snapshot write — and is discarded in favour of a full replay).
const (
	segMagic      = "pnsg"
	segHeaderSize = 4 + 4 + 8 // magic + format u32 + generation u64
	// maxRecordSize rejects absurd record-length prefixes during replay, so
	// a corrupted length byte cannot trigger a giant allocation.
	maxRecordSize = 1 << 28
)

// writeSegHeader writes the 16-byte segment header at the file's start.
func writeSegHeader(w io.Writer, gen uint64) error {
	var h [segHeaderSize]byte
	copy(h[:4], segMagic)
	binary.LittleEndian.PutUint32(h[4:8], segFormat)
	binary.LittleEndian.PutUint64(h[8:16], gen)
	_, err := w.Write(h[:])
	return err
}

// readSegHeader validates the segment header and returns its generation.
func readSegHeader(f *os.File) (uint64, error) {
	var h [segHeaderSize]byte
	if _, err := f.ReadAt(h[:], 0); err != nil {
		return 0, fmt.Errorf("segment header: %w", err)
	}
	if string(h[:4]) != segMagic {
		return 0, fmt.Errorf("segment header: bad magic %q", h[:4])
	}
	if format := binary.LittleEndian.Uint32(h[4:8]); format != segFormat {
		return 0, fmt.Errorf("segment header: format %d, want %d", format, segFormat)
	}
	return binary.LittleEndian.Uint64(h[8:16]), nil
}

// diskKnobs bundles the durability and maintenance policy the retriever
// resolves from its options.
type diskKnobs struct {
	// compactRatio is the dead-record fraction that triggers a compaction
	// rewrite at Flush/Close. Callers pass a value > 1 to disable.
	compactRatio float64
	// quantize enables the int8 quantized HNSW query path; quantized
	// arenas are persisted in snapshots so a reopen bulk-loads them.
	quantize bool
	// mmap makes snapshot loads map the file instead of reading it.
	mmap bool
	// gc is the retriever-wide group-commit coordinator; nil only for
	// backends opened outside a Retriever (see groupcommit.go). Its
	// flusher goroutine also runs due compactions off the write path (see
	// compact.go); without one they run inline under the shard lock.
	gc *groupCommit
}

// diskBackend is the Disk shard: the in-memory structures of memoryBackend
// plus an append-only binary segment file and a state snapshot. Every
// Index/Delete appends one CRC-guarded record; the record order is exactly
// the live mutation order, so replaying the log rebuilds bit-identical
// HNSW and BM25 structures. The snapshot serializes the built state
// directly, letting Open skip graph construction and replay only the
// records past the snapshot's high-water mark.
type diskBackend struct {
	*memoryBackend
	path     string
	snapPath string
	f        *os.File
	w        *bufio.Writer
	knobs    diskKnobs

	gen      uint64 // segment generation (bumped by compaction)
	segSize  int64  // logical segment size: header + whole records, incl. buffered
	flushed  int64  // prefix of segSize actually written to the OS file (not buffered)
	snapSize int64  // segment offset covered by the on-disk snapshot
	records  int64  // records in the segment (live + dead)

	// Group-commit state, guarded by the shard lock like everything else:
	// records/bytes appended since the last fsync, the first asynchronous
	// sync error (surfaced at the next Flush/Close), and the cumulative
	// fsync count (Retriever.Fsyncs).
	pendingRecs  int
	pendingBytes int64
	syncErr      error
	fsyncs       uint64

	// Background-compaction state, guarded by the shard lock (compact.go).
	// compactDone is non-nil while a rewrite is scheduled or running and is
	// closed when it finishes (however it finishes); compactErr parks a
	// failure for the next Flush/Close, like syncErr. The remaining fields
	// feed Retriever.CompactionStats.
	compactWant     bool
	compactDone     chan struct{}
	compactErr      error
	compactRuns     uint64
	compactReclaim  int64
	compactMaxStall time.Duration

	// snapMap is the snapshot file mapping the shard's arenas and strings
	// alias when opened with mmap; released only at Close, because even
	// compaction-rebuilt state retains document strings pointing into it.
	snapMap []byte

	rec   wire.Writer // reusable record payload buffer
	frame wire.Writer // reusable record frame buffer
}

// openDiskBackend opens (or creates) the shard at path. When a valid
// snapshot for the segment's current generation exists, its state is bulk
// loaded and only records past its high-water mark are replayed;
// otherwise the full log is replayed. A trailing torn record or a
// CRC-mismatching record — the signatures of a crash mid-write — truncate
// the log at the last whole record rather than failing the open. ef is
// the HNSW query beam width (0 selects hnsw.DefaultEfSearch); it is a
// query-time knob, so it is not pinned in the manifest.
func openDiskBackend(path, snapPath string, dim int, seed int64, st *bm25.Stats, ef int, knobs diskKnobs) (*diskBackend, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := fi.Size()
	gen := uint64(1)
	if size < segHeaderSize {
		// Empty, or shorter than the header — the signature of a crash
		// between file creation and the first sync. A file this short can
		// hold no records, so resetting it loses nothing.
		if size > 0 {
			if err := f.Truncate(0); err != nil {
				f.Close()
				return nil, err
			}
			if _, err := f.Seek(0, io.SeekStart); err != nil {
				f.Close()
				return nil, err
			}
		}
		if err := writeSegHeader(f, gen); err != nil {
			f.Close()
			return nil, err
		}
		size = segHeaderSize
	} else {
		if gen, err = readSegHeader(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("retriever: %s: %w", path, err)
		}
	}

	mem := newMemoryBackend(dim, seed, st, ef, knobs.quantize)
	water := int64(segHeaderSize)
	var recs int64
	var snapMap []byte
	repairSnap := false
	if snapMem, snapWater, snapRecs, mapping, serr := loadSnapshot(snapPath, gen, size, dim, seed, st, ef, knobs.quantize, knobs.mmap); serr == nil {
		mem, water, recs, snapMap = snapMem, snapWater, snapRecs, mapping
	} else if !os.IsNotExist(serr) {
		// A snapshot exists but is unusable (torn tail, CRC mismatch,
		// different version, stale generation): fall back to a full
		// replay and rewrite it below so the next open is fast again.
		repairSnap = true
	}

	fail := func(err error) (*diskBackend, error) {
		f.Close()
		_ = munmapFile(snapMap)
		return nil, err
	}
	good, replayed, err := replaySegment(f, mem, water)
	if err != nil {
		return fail(fmt.Errorf("retriever: replay %s: %w", path, err))
	}
	// Drop any trailing garbage past the last whole record, then seek to
	// the end so new records append after it.
	if err := f.Truncate(good); err != nil {
		return fail(err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		return fail(err)
	}
	b := &diskBackend{
		memoryBackend: mem,
		path:          path,
		snapPath:      snapPath,
		f:             f,
		w:             bufio.NewWriterSize(f, 1<<20),
		knobs:         knobs,
		gen:           gen,
		segSize:       good,
		flushed:       good,
		snapSize:      water,
		records:       recs + replayed,
		snapMap:       snapMap,
	}
	if repairSnap {
		if err := b.writeSnapshot(); err != nil {
			return fail(err)
		}
	}
	return b, nil
}

// replaySegment applies every whole, CRC-valid record in f starting at
// byte offset from, and returns the offset just past the last good record
// plus the number of records applied. Anything after that offset — a torn
// length prefix, a short payload, a checksum mismatch or an undecodable
// record — is for the caller to truncate: record boundaries after a
// corrupt record cannot be trusted, so recovery keeps the longest clean
// prefix.
func replaySegment(f *os.File, mem *memoryBackend, from int64) (int64, int64, error) {
	if _, err := f.Seek(from, io.SeekStart); err != nil {
		return 0, 0, err
	}
	r := bufio.NewReaderSize(f, 1<<20)
	good := from
	var recs int64
	var payload []byte
	var crcb [4]byte
	for {
		var prefix int64
		n, err := wire.ReadUvarint(r, &prefix)
		if err != nil || n == 0 || n > maxRecordSize {
			return good, recs, nil
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return good, recs, nil
		}
		if _, err := io.ReadFull(r, crcb[:]); err != nil {
			return good, recs, nil
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(crcb[:]) {
			return good, recs, nil
		}
		ok, err := applyRecord(mem, payload)
		if err != nil {
			return 0, 0, err
		}
		if !ok {
			return good, recs, nil
		}
		good += prefix + int64(n) + 4
		recs++
	}
}

// segRecord is one decoded segment record: an add (op, id, vec, doc) or a
// delete tombstone (op, id).
type segRecord struct {
	op  byte
	id  string
	vec []float32
	doc docs.Document
}

// errBadRecord is the typed rejection for a record payload that does not
// decode cleanly: wrong op byte, short or over-long sections, a vector of
// the wrong dimensionality, or trailing garbage. Replay treats it as the
// signature of a torn or corrupted tail and truncates; it is never a
// panic, whatever bytes arrive (the fuzz target's contract).
var errBadRecord = fmt.Errorf("retriever: undecodable segment record")

// decodeRecord parses one record payload against the shard's embedding
// dimensionality. It consumes the whole payload or fails: any leftover
// bytes mean the frame length and the content disagree, which only
// corruption produces.
func decodeRecord(payload []byte, dim int) (segRecord, error) {
	rd := wire.NewReader(payload)
	r := segRecord{op: rd.Byte()}
	r.id = rd.String()
	switch r.op {
	case opAdd:
		r.vec = rd.Float32s()
		doc, derr := decodeDoc(rd, r.id)
		if rd.Err() != nil || derr != nil || len(r.vec) != dim || rd.Remaining() != 0 {
			return segRecord{}, errBadRecord
		}
		r.doc = doc
	case opDel:
		if rd.Err() != nil || rd.Remaining() != 0 {
			return segRecord{}, errBadRecord
		}
	default:
		return segRecord{}, errBadRecord
	}
	return r, nil
}

// applyRecord decodes one record payload and applies it to the in-memory
// shard. It returns (false, nil) for an undecodable payload — corruption
// the caller handles by truncating — and a non-nil error only for real
// apply failures (which indicate a config mismatch, not disk damage).
func applyRecord(mem *memoryBackend, payload []byte) (bool, error) {
	rec, derr := decodeRecord(payload, mem.dim)
	if derr != nil {
		return false, nil
	}
	switch rec.op {
	case opAdd:
		if err := mem.Index(rec.doc, rec.vec); err != nil {
			return false, err
		}
	case opDel:
		mem.Delete(rec.id)
	}
	return true, nil
}

// writeFramedRecord frames one record payload (uvarint length prefix +
// payload + CRC32) into w, using frame as scratch, and returns the framed
// byte count. Shared by the live append path, segment rewrites and the
// background-compaction catch-up copier — every segment byte goes through
// the same framing.
func writeFramedRecord(w io.Writer, frame *wire.Writer, payload []byte) (int64, error) {
	frame.Reset()
	frame.Uvarint(uint64(len(payload)))
	if _, err := w.Write(frame.Bytes()); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return 0, err
	}
	var crcb [4]byte
	binary.LittleEndian.PutUint32(crcb[:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(crcb[:]); err != nil {
		return 0, err
	}
	return int64(frame.Len()+len(payload)) + 4, nil
}

// appendRecord frames the current contents of b.rec (length prefix +
// payload + CRC32) into the segment buffer. Writers never fsync inline:
// when a sync policy is configured the record joins the shard's pending
// batch and the group-commit flusher is poked (immediately if a count or
// byte threshold tripped, otherwise after the latency bound — see
// groupcommit.go). Without a policy, durability is deferred to
// Flush/Close as before. Either way, the append also checks the
// compaction threshold, so a segment whose dead fraction crosses the
// configured ratio starts its background rewrite immediately instead of
// waiting for the next Flush.
func (b *diskBackend) appendRecord() error {
	rec, err := writeFramedRecord(b.w, &b.frame, b.rec.Bytes())
	if err != nil {
		return err
	}
	b.segSize += rec
	b.records++
	gc := b.knobs.gc
	if gc == nil {
		return nil
	}
	if gc.sync {
		b.pendingRecs++
		b.pendingBytes += rec
		gc.signal(gc.tripped(b.pendingBytes))
	}
	if b.compactDone == nil && b.shouldCompact() {
		b.scheduleCompactLocked()
	}
	return nil
}

// encodeAddRecord fills b.rec with an add record.
func (b *diskBackend) encodeAddRecord(d docs.Document, vec []float32) {
	b.rec.Reset()
	b.rec.Byte(opAdd)
	b.rec.String(d.ID)
	b.rec.Float32s(vec)
	encodeDoc(&b.rec, d)
}

// Index adds the document to the in-memory shard and logs it.
func (b *diskBackend) Index(d docs.Document, vec []float32) error {
	if err := b.memoryBackend.Index(d, vec); err != nil {
		return err
	}
	b.encodeAddRecord(d, vec)
	return b.appendRecord()
}

// IndexBatch adds the batch to the in-memory shard, then logs one add
// record per document in batch order — the record order stays exactly the
// live mutation order, so a replay rebuilds bit-identical structures.
func (b *diskBackend) IndexBatch(ds []docs.Document, vecs [][]float32) error {
	if err := b.memoryBackend.IndexBatch(ds, vecs); err != nil {
		return err
	}
	for i, d := range ds {
		b.encodeAddRecord(d, vecs[i])
		if err := b.appendRecord(); err != nil {
			return err
		}
	}
	return nil
}

// DeleteBatch tombstones the batch in memory and logs one delete record
// per document that was actually present.
func (b *diskBackend) DeleteBatch(ids []string) int {
	present := ids[:0:0]
	for _, id := range ids {
		if _, ok := b.byID.Load(id); ok {
			present = append(present, id)
		}
	}
	if len(present) == 0 {
		return 0
	}
	b.memoryBackend.DeleteBatch(present)
	for _, id := range present {
		b.rec.Reset()
		b.rec.Byte(opDel)
		b.rec.String(id)
		_ = b.appendRecord()
	}
	return len(present)
}

// Delete removes the document and logs a tombstone record.
func (b *diskBackend) Delete(id string) bool {
	if !b.memoryBackend.Delete(id) {
		return false
	}
	// A failed tombstone append leaves the delete visible in memory but
	// not durable; the reopened index resurrects the document. That is
	// the backend's documented durability boundary (crash-after-delete);
	// WithSyncBytes(1) shrinks the window to the single record.
	b.rec.Reset()
	b.rec.Byte(opDel)
	b.rec.String(id)
	_ = b.appendRecord()
	return true
}

// syncSegment drains the write buffer and fsyncs the segment file,
// clearing the pending group-commit batch. One call makes every record
// appended since the previous sync durable — the whole point of group
// commit is that this runs once per batch, not once per record.
func (b *diskBackend) syncSegment() error {
	b.pendingRecs = 0
	b.pendingBytes = 0
	if err := b.w.Flush(); err != nil {
		return err
	}
	b.flushed = b.segSize
	if err := b.f.Sync(); err != nil {
		return err
	}
	b.fsyncs++
	return nil
}

// Flush makes the shard durable inline, entirely under the caller's shard
// lock: the segment is drained and fsynced, then a compaction rewrite
// runs when the dead-record fraction crosses the threshold, and a fresh
// snapshot is written when records were appended since the last one. Any
// sync or background-compaction error parked by the flusher since the last
// Flush surfaces here first.
//
// This is the Close path, once the flusher has stopped (and the whole
// story for a backend opened without a group-commit coordinator).
// Retriever.Flush instead goes through flushLocked/finishFlushLocked
// (compact.go) so a due compaction runs on the flusher goroutine while the
// shard keeps serving writes.
func (b *diskBackend) Flush() error {
	if err := b.takeAsyncErr(); err != nil {
		return err
	}
	if err := b.syncSegment(); err != nil {
		return err
	}
	if b.shouldCompact() {
		if err := b.compact(); err != nil {
			return err
		}
	}
	if b.segSize != b.snapSize {
		return b.writeSnapshot()
	}
	return nil
}

// takeAsyncErr surfaces (and clears) the first error the flusher parked on
// this shard — a failed group-commit fsync or a failed background
// compaction — in that order.
func (b *diskBackend) takeAsyncErr() error {
	if err := b.syncErr; err != nil {
		b.syncErr = nil
		return err
	}
	if err := b.compactErr; err != nil {
		b.compactErr = nil
		return err
	}
	return nil
}

// shouldCompact reports whether dead records (superseded adds, deleted
// documents and the tombstone records themselves) make up at least the
// configured fraction of the segment.
func (b *diskBackend) shouldCompact() bool {
	if b.records == 0 {
		return false
	}
	dead := b.records - int64(b.memoryBackend.Len())
	if dead <= 0 {
		return false
	}
	return float64(dead)/float64(b.records) >= b.knobs.compactRatio
}

// compact rewrites the segment to exactly the live documents (in their
// original insertion order) under a bumped generation, rebuilds the
// in-memory state to match a replay of the rewritten log — graph
// construction reruns without the tombstoned nodes, so post-compaction
// results are those of a fresh index over the surviving corpus — and
// writes a fresh snapshot. This is the inline variant: the caller's shard
// lock is held throughout, so the whole rewrite counts as writer stall
// (the number the background path exists to shrink).
func (b *diskBackend) compact() error {
	start := time.Now()
	before := b.records
	size, recs, err := rewriteSegment(b.memoryBackend, b.path, b.gen+1)
	if err != nil {
		return err
	}
	if err := b.swapSegment(size, recs); err != nil {
		return err
	}
	if err := b.memoryBackend.compact(); err != nil {
		return err
	}
	b.noteCompaction(before-recs, time.Since(start))
	return b.writeSnapshot()
}

// swapSegment retargets the shard's write state at the freshly renamed
// segment file of the given logical size and record count: the old handle
// is swapped for a new one positioned at the segment's end, the
// generation advances, and the snapshot watermark resets (the previous
// snapshot's generation is now stale). Shared by inline and background
// compaction; shard lock held.
func (b *diskBackend) swapSegment(size, recs int64) error {
	if err := b.f.Close(); err != nil {
		return err
	}
	nf, err := os.OpenFile(b.path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if _, err := nf.Seek(size, io.SeekStart); err != nil {
		nf.Close()
		return err
	}
	b.f = nf
	b.w.Reset(nf)
	b.gen++
	b.segSize = size
	b.flushed = size
	b.snapSize = 0
	b.records = recs
	b.pendingRecs = 0
	b.pendingBytes = 0
	return nil
}

// rewriteSegment writes a fresh segment at path (atomically, via rename)
// containing one add record per live document of mem, in insertion order,
// under the given generation. It returns the new logical size and record
// count.
func rewriteSegment(mem *memoryBackend, path string, gen uint64) (int64, int64, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, 0, err
	}
	defer os.Remove(tmp)
	w := bufio.NewWriterSize(f, 1<<20)
	if err := writeSegHeader(w, gen); err != nil {
		f.Close()
		return 0, 0, err
	}
	size := int64(segHeaderSize)
	var recs int64
	var rec, frame wire.Writer
	var werr error
	mem.vec.ForEachLive(func(id string, vec []float32) bool {
		d, ok := mem.Document(id)
		if !ok {
			werr = fmt.Errorf("retriever: compact: document %q in graph but not in store", id)
			return false
		}
		rec.Reset()
		rec.Byte(opAdd)
		rec.String(id)
		rec.Float32s(vec)
		encodeDoc(&rec, d)
		var n int64
		if n, werr = writeFramedRecord(w, &frame, rec.Bytes()); werr != nil {
			return false
		}
		size += n
		recs++
		return true
	})
	if werr == nil {
		werr = w.Flush()
	}
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return 0, 0, werr
	}
	if err := os.Rename(tmp, path); err != nil {
		return 0, 0, err
	}
	return size, recs, nil
}

// Close flushes (including any due compaction and snapshot), closes the
// segment file and releases the snapshot mapping. The munmap comes last:
// until this point the shard's arenas and document strings may alias the
// mapping, which is why mmap-backed search results must not be retained
// past Close (see the package doc's mmap caveats).
func (b *diskBackend) Close() error {
	err := b.Flush()
	if cerr := b.f.Close(); err == nil {
		err = cerr
	}
	if merr := munmapFile(b.snapMap); err == nil {
		err = merr
	}
	b.snapMap = nil
	return err
}
