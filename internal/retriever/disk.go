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
	"runtime"
	"sync/atomic"
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
// rename + directory fsync): the manifest pins the shard routing for the
// whole directory, so a crash mid-write must leave either no manifest or
// a whole one, never a torn one.
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
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(dir)
}

// dirSyncs counts the directory fsyncs syncDir made, across every index
// in the process; tests read it to see that each rename is made durable.
var dirSyncs atomic.Uint64

// syncDir fsyncs directory dir, making a rename into it durable: until the
// directory is synced, a crash can bring back the name's old inode, and a
// later acknowledged write to the new file would be lost with it. Windows
// cannot fsync a directory handle, and NTFS journals the rename itself.
func syncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		dirSyncs.Add(1)
	}
	return err
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

// diskBackend is a Disk shard's log: an append-only binary segment file
// and a state snapshot that persist the shard's in-memory index (mem, the
// same memoryBackend the shard serves from). Every document the shard adds
// or removes appends one CRC-guarded record; the record order is exactly
// the live mutation order, so replaying the log rebuilds bit-identical HNSW
// and BM25 structures. The snapshot serializes the built state directly,
// letting Open skip graph construction and replay only the records past
// the snapshot's high-water mark.
type diskBackend struct {
	mem      *memoryBackend
	path     string
	snapPath string
	f        *os.File
	w        *bufio.Writer
	// compactor is the retriever's background goroutine that runs every
	// due compaction (see compact.go).
	compactor *compactor
	// compactRatio is the dead-record fraction that triggers a compaction
	// rewrite (DefaultCompactionRatio; this package's tests pass a value
	// above 1 to disable compaction).
	compactRatio float64

	gen      uint64 // segment generation (bumped by compaction)
	segSize  int64  // logical segment size: header + whole records, incl. buffered
	flushed  int64  // prefix of segSize actually written to the OS file (not buffered)
	snapSize int64  // segment offset covered by the on-disk snapshot
	records  int64  // records in the segment (live + dead)

	// Guarded by the shard lock like everything else: the first error no
	// caller could be handed (see park), returned by the next
	// Flush/Close, and the cumulative fsync count (Retriever.Fsyncs).
	parked error
	fsyncs uint64

	// Background-compaction state, guarded by the shard lock (compact.go).
	// compactDone is non-nil while a rewrite is scheduled or running and is
	// closed when it finishes (however it finishes). The remaining fields
	// feed Retriever.CompactionStats.
	compactWant     bool
	compactDone     chan struct{}
	compactRuns     uint64
	compactReclaim  int64
	compactMaxStall time.Duration

	rec   wire.Writer // reusable record payload buffer
	frame wire.Writer // reusable record frame buffer
}

// openDiskBackend opens (or creates) the shard at path. When a valid
// snapshot for the segment's current generation exists, its state is bulk
// loaded and only records past its high-water mark are replayed;
// otherwise the full log is replayed. A trailing torn record or a
// CRC-mismatching record — the signatures of a crash mid-write — truncate
// the log at the last whole record rather than failing the open.
func openDiskBackend(path, snapPath string, dim int, seed int64, st *bm25.Stats, c *compactor, compactRatio float64) (*diskBackend, error) {
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
		// The first write call fsyncs the file; the directory entry that
		// names it needs its own sync.
		if err := syncDir(filepath.Dir(path)); err != nil {
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

	mem := newMemoryBackend(dim, seed, st)
	water := int64(segHeaderSize)
	var recs int64
	repairSnap := false
	if snapMem, snapWater, snapRecs, serr := loadSnapshot(snapPath, gen, size, dim, seed, st); serr == nil {
		mem, water, recs = snapMem, snapWater, snapRecs
	} else if !os.IsNotExist(serr) {
		// A snapshot exists but is unusable (torn tail, CRC mismatch,
		// different version, stale generation): fall back to a full
		// replay and rewrite it below so the next open is fast again.
		repairSnap = true
	}

	fail := func(err error) (*diskBackend, error) {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(water, io.SeekStart); err != nil {
		return fail(err)
	}
	n, replayed, err := replayFrames(bufio.NewReaderSize(f, 1<<20), mem)
	if err != nil {
		return fail(fmt.Errorf("retriever: replay %s: %w", path, err))
	}
	// Drop anything past the last whole record — record boundaries after
	// damage cannot be trusted, so recovery keeps the longest clean
	// prefix — then seek to the end so new records append after it.
	good := water + n
	if err := f.Truncate(good); err != nil {
		return fail(err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		return fail(err)
	}
	b := &diskBackend{
		mem:          mem,
		path:         path,
		snapPath:     snapPath,
		f:            f,
		w:            bufio.NewWriterSize(f, 1<<20),
		compactor:    c,
		compactRatio: compactRatio,
		gen:          gen,
		segSize:      good,
		flushed:      good,
		snapSize:     water,
		records:      recs + replayed,
	}
	if repairSnap {
		if err := b.writeSnapshot(); err != nil {
			return fail(err)
		}
	}
	return b, nil
}

// frameReader is what replayFrames reads record frames from: a buffered
// segment file on Open, the flushed tail of one in a compaction catch-up.
type frameReader interface {
	io.Reader
	io.ByteReader
}

// replayFrames is the one reader of segment record frames. It applies
// every whole, CRC-valid, decodable frame in r to mem, in order, and stops
// at the first frame that is not — a torn length prefix, a short payload,
// a checksum mismatch, a length of 0 or above maxRecordSize, or a payload
// decodeRecord rejects — returning the byte length of the frames it
// applied and their count. The error is non-nil only when applying a
// decoded add fails, which is a configuration mismatch, not damage.
func replayFrames(r frameReader, mem *memoryBackend) (int64, int64, error) {
	var good, recs int64
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
		rec, err := decodeRecord(payload, mem.dim)
		if err != nil {
			return good, recs, nil
		}
		if rec.op == opDel {
			mem.deleteBatch([]string{rec.id})
		} else if err := mem.IndexBatch([]docs.Document{rec.doc}, [][]float32{rec.vec}); err != nil {
			return 0, 0, err
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

// writeFramedRecord frames one record payload (uvarint length prefix +
// payload + CRC32) into w, using frame as scratch, and returns the framed
// byte count. Shared by the live append path and the compaction rewrite —
// every segment byte goes through the same framing.
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
// payload + CRC32) into the segment buffer. It does not sync: the write
// call that appended the record syncs once after its last record (see
// syncSegment). The append also checks the compaction threshold, so a
// segment whose dead fraction crosses it starts its rewrite immediately
// instead of waiting for the next Flush.
func (b *diskBackend) appendRecord() error {
	rec, err := writeFramedRecord(b.w, &b.frame, b.rec.Bytes())
	if err != nil {
		return err
	}
	b.segSize += rec
	b.records++
	if b.compactDone == nil && b.shouldCompact() {
		b.scheduleCompactLocked()
	}
	return nil
}

// encodeAddRecord writes an add record's payload into w. The live append
// path and the compaction rewrite both encode through it.
func encodeAddRecord(w *wire.Writer, d docs.Document, vec []float32) {
	w.Reset()
	w.Byte(opAdd)
	w.String(d.ID)
	w.Float32s(vec)
	encodeDoc(w, d)
}

// logAdds appends one add record per document in batch order, after the
// shard wrote the batch to mem — the record order stays exactly the live
// mutation order, so a replay rebuilds bit-identical structures.
func (b *diskBackend) logAdds(ds []docs.Document, vecs [][]float32) error {
	for i, d := range ds {
		encodeAddRecord(&b.rec, d, vecs[i])
		if err := b.appendRecord(); err != nil {
			return err
		}
	}
	return nil
}

// logDeletes appends one delete record per removed ID, in order, then
// syncs them; a batch that removed nothing appends and syncs nothing.
// DeleteDocuments reports only a count, so a failed append or sync is
// parked and the next Flush/Close returns it. Until then the
// delete is visible in memory but may not be durable: an index reopened
// after a crash may hold the document again.
func (b *diskBackend) logDeletes(removed []string) {
	if len(removed) == 0 {
		return
	}
	var err error
	for _, id := range removed {
		b.rec.Reset()
		b.rec.Byte(opDel)
		b.rec.String(id)
		if err = b.appendRecord(); err != nil {
			break
		}
	}
	if err == nil {
		err = b.syncSegment()
	}
	b.park(err)
}

// park keeps err for the next Flush/Close when it is the shard's first
// failure that no caller could be handed: a delete's append or sync, an
// ingest's sync behind an earlier error, or a background compaction
// (shard lock held).
func (b *diskBackend) park(err error) {
	if err != nil && b.parked == nil {
		b.parked = err
	}
}

// syncSegment drains the write buffer and fsyncs the segment file. One
// call makes every record appended since the previous sync durable; each
// write call runs it once per shard it appended to, after its last
// record, so a batch costs one fsync per touched shard, not one per
// record.
func (b *diskBackend) syncSegment() error {
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

// Flush makes the shard durable under the caller's shard lock: any delete
// or compaction error parked since the last Flush surfaces first, then
// the segment is drained and fsynced, and a fresh snapshot is written
// when the segment changed since the last one. It never compacts: a due
// rewrite runs on the compactor (see Retriever.flush).
func (b *diskBackend) Flush() error {
	if err := b.takeParked(); err != nil {
		return err
	}
	if err := b.syncSegment(); err != nil {
		return err
	}
	if b.segSize != b.snapSize {
		return b.writeSnapshot()
	}
	return nil
}

// takeParked returns and clears the parked error (see park).
func (b *diskBackend) takeParked() error {
	err := b.parked
	b.parked = nil
	return err
}

// shouldCompact reports whether dead records (superseded adds, deleted
// documents and the tombstone records themselves) make up at least the
// configured fraction of the segment.
func (b *diskBackend) shouldCompact() bool {
	if b.records == 0 {
		return false
	}
	dead := b.records - int64(b.mem.Len())
	if dead <= 0 {
		return false
	}
	return float64(dead)/float64(b.records) >= b.compactRatio
}

// swapSegment retargets the shard's write state at the freshly renamed
// segment file of the given logical size and record count: the old handle
// is swapped for a new one positioned at the segment's end, the
// generation advances, and the snapshot watermark resets (the previous
// snapshot's generation is now stale). Shard lock held.
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
	return nil
}

// Close flushes (sync, and the snapshot if stale) and closes the segment
// file.
func (b *diskBackend) Close() error {
	err := b.Flush()
	if cerr := b.f.Close(); err == nil {
		err = cerr
	}
	return err
}
