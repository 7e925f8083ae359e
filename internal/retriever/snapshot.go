package retriever

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"pneuma/internal/bm25"
	"pneuma/internal/docs"
	"pneuma/internal/wire"
)

// Per-shard snapshot file: a direct serialization of the built shard
// state — document store, HNSW struct-of-arrays and BM25 document table —
// so Open becomes a bulk load instead of a graph rebuild. The fixed
// header carries the snapshot version, the generation of the segment file
// it covers and the high-water mark (segment byte offset) up to which the
// log is folded in; records past the mark are replayed on top. The whole
// file is CRC32-guarded and written atomically (tmp + fsync + rename +
// directory fsync), so a torn or corrupt snapshot is detected up front
// and degrades to a full segment replay, never to wrong state.
//
// Version 2 lays the HNSW vector arenas (norms and float32 vectors) out as
// wire aligned blobs, padded relative to the file start; the int8 codes
// are rebuilt at load, and a snapshot an older build wrote with int8
// arrays in its HNSW section is rejected and degrades to a replay. An open
// reads the whole file into one buffer and the arenas become zero-copy
// views of it. Version-1 snapshots (prior builds) fail the version check
// and degrade to a replay that rewrites the snapshot in the current
// format.
const (
	snapMagic      = "pnss"
	snapVersion    = 2
	snapHeaderSize = 4 + 4 + 8 + 8 + 8 // magic + version u32 + generation + watermark + records
)

// snapCRCTable selects the Castagnoli polynomial for the whole-file
// snapshot checksum: amd64 and arm64 compute it with the dedicated CRC32
// instruction, so guarding a multi-megabyte snapshot costs a fraction of
// a millisecond instead of dominating the open. Part of the version-2
// format (version 1 used IEEE; its snapshots fail the version check
// before the polynomial could matter).
var snapCRCTable = crc32.MakeTable(crc32.Castagnoli)

// writeSnapshot serializes the shard's current state next to the segment
// file and advances the snapshot high-water mark. The whole file is built
// in one wire.Writer so blob padding is relative to file offset 0 — the
// invariant the load path's zero-copy reinterpretation depends on.
// No section touches shared state as it loads: the BM25 section is
// restored against a private Stats object that joins the retriever-wide
// one only after every section has validated (see loadSnapshot), so a
// snapshot that fails anywhere leaves the shared statistics untouched.
func (b *diskBackend) writeSnapshot() error {
	var w wire.Writer
	var head [snapHeaderSize]byte
	copy(head[:4], snapMagic)
	binary.LittleEndian.PutUint32(head[4:8], snapVersion)
	binary.LittleEndian.PutUint64(head[8:16], b.gen)
	binary.LittleEndian.PutUint64(head[16:24], uint64(b.segSize))
	binary.LittleEndian.PutUint64(head[24:32], uint64(b.records))
	w.Raw(head[:])

	// Document store, sorted by ID so equal states produce equal bytes.
	ids := make([]string, 0, b.mem.Len())
	b.mem.byID.Range(func(k, _ any) bool {
		ids = append(ids, k.(string))
		return true
	})
	sort.Strings(ids)
	w.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		d, _ := b.mem.Document(id)
		w.String(id)
		encodeDoc(&w, d)
	}

	b.mem.vec.AppendSnapshot(&w)
	b.mem.lex.AppendSnapshot(&w)

	var crcb [4]byte
	binary.LittleEndian.PutUint32(crcb[:], crc32.Checksum(w.Bytes(), snapCRCTable))
	w.Raw(crcb[:])

	tmp := b.snapPath + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer os.Remove(tmp)
	if _, err := f.Write(w.Bytes()); err != nil {
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
	if err := os.Rename(tmp, b.snapPath); err != nil {
		return err
	}
	if err := syncDir(filepath.Dir(b.snapPath)); err != nil {
		return err
	}
	b.snapSize = b.segSize
	return nil
}

// loadSnapshot reads and validates the snapshot at snapPath and, on
// success, returns a fully built in-memory shard plus the high-water mark
// and record count it covers. The built shard's arenas, document strings
// and IDs are zero-copy views of the file buffer, which the shard then
// owns. The whole-file CRC is verified before any section is parsed, so a
// torn or flipped blob is caught up front.
//
// A missing file returns the raw not-exist error (the caller treats it as
// "no snapshot"); every other failure — torn tail, CRC mismatch, version
// from a different build, generation not matching the live segment,
// watermark past the segment's size — returns a descriptive error, and
// the caller falls back to a full replay (and rewrites the snapshot). The
// shared Stats object is only mutated if the entire snapshot parses.
func loadSnapshot(snapPath string, expectGen uint64, segSize int64, dim int, seed int64, st *bm25.Stats) (mem *memoryBackend, water, records int64, err error) {
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		return nil, 0, 0, err
	}
	if len(raw) < snapHeaderSize+4 {
		return nil, 0, 0, fmt.Errorf("snapshot %s: truncated (%d bytes)", snapPath, len(raw))
	}
	body, crcb := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.Checksum(body, snapCRCTable) != binary.LittleEndian.Uint32(crcb) {
		return nil, 0, 0, fmt.Errorf("snapshot %s: checksum mismatch", snapPath)
	}
	if string(body[:4]) != snapMagic {
		return nil, 0, 0, fmt.Errorf("snapshot %s: bad magic %q", snapPath, body[:4])
	}
	if v := binary.LittleEndian.Uint32(body[4:8]); v != snapVersion {
		return nil, 0, 0, fmt.Errorf("snapshot %s: version %d, this build reads %d", snapPath, v, snapVersion)
	}
	if gen := binary.LittleEndian.Uint64(body[8:16]); gen != expectGen {
		return nil, 0, 0, fmt.Errorf("snapshot %s: covers segment generation %d, segment is at %d", snapPath, gen, expectGen)
	}
	water = int64(binary.LittleEndian.Uint64(body[16:24]))
	records = int64(binary.LittleEndian.Uint64(body[24:32]))
	if water < segHeaderSize || water > segSize {
		return nil, 0, 0, fmt.Errorf("snapshot %s: watermark %d outside segment of %d bytes", snapPath, water, segSize)
	}

	// The snapshot buffer is owned by the structures built from it, so
	// strings and arenas decode as zero-copy views (wire.NewSharedReader).
	// The reader spans the whole body — offset 0 == file offset 0 — so
	// blob alignment lines up; the fixed header is skipped, not re-parsed.
	rd := wire.NewSharedReader(body)
	rd.Skip(snapHeaderSize)
	count := int(rd.Uvarint())
	if count > rd.Remaining() {
		return nil, 0, 0, fmt.Errorf("snapshot %s: claims %d documents in %d bytes", snapPath, count, rd.Remaining())
	}
	byID := make(map[string]docs.Document, count)
	for i := 0; i < count; i++ {
		id := rd.String()
		d, derr := decodeDoc(rd, id)
		if derr != nil {
			return nil, 0, 0, fmt.Errorf("snapshot %s: %w", snapPath, derr)
		}
		byID[id] = d
	}
	if err := rd.Err(); err != nil {
		return nil, 0, 0, fmt.Errorf("snapshot %s: document store: %w", snapPath, err)
	}

	// Parse the index sections against a private Stats object: the shared
	// one is only touched (via AttachStats) once every section has
	// validated, so a bad snapshot cannot leak document frequencies into
	// the corpus totals before the caller falls back to a replay.
	mem = newMemoryBackend(dim, seed, nil)
	if err := mem.vec.LoadSnapshot(rd); err != nil {
		return nil, 0, 0, fmt.Errorf("snapshot %s: %w", snapPath, err)
	}
	if err := mem.lex.LoadSnapshot(rd); err != nil {
		return nil, 0, 0, fmt.Errorf("snapshot %s: %w", snapPath, err)
	}
	if mem.vec.Len() != len(byID) || mem.lex.Len() != len(byID) {
		return nil, 0, 0, fmt.Errorf("snapshot %s: sections disagree (%d docs, %d vectors, %d lexical)",
			snapPath, len(byID), mem.vec.Len(), mem.lex.Len())
	}
	mem.setDocs(byID)
	mem.lex.AttachStats(st)
	return mem, water, records, nil
}
