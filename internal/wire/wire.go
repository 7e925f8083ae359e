// Package wire implements the little-endian binary primitives shared by
// the persistence layer: the retriever's segment records and snapshot
// files, and the hnsw/bm25 state serializers. The format vocabulary is
// deliberately tiny — unsigned varints, zigzag varints, length-prefixed
// strings, fixed-width 32/64-bit words and raw float32 runs — so every
// on-disk structure is self-describing enough to detect truncation without
// a schema compiler.
//
// Writer accumulates bytes in memory (callers frame, checksum and fsync);
// Reader decodes from a byte slice with sticky error semantics: the first
// malformed or truncated field poisons the reader and every later call
// returns a zero value, so decode loops check Err once at the end instead
// of after every field.
package wire

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"unsafe"
)

// ErrTruncated is the sticky Reader error for any field that runs past the
// end of the buffer or is otherwise malformed.
var ErrTruncated = errors.New("wire: truncated or malformed input")

// Writer accumulates a binary payload in memory. The zero value is ready
// to use; Reset recycles the buffer across records.
type Writer struct {
	buf []byte
}

// Reset empties the writer, keeping the allocated buffer.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Bytes returns the accumulated payload. The slice aliases the writer's
// buffer and is invalidated by the next Reset or append.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the accumulated payload size in bytes.
func (w *Writer) Len() int { return len(w.buf) }

// Byte appends one raw byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(x uint64) { w.buf = binary.AppendUvarint(w.buf, x) }

// Varint appends a zigzag-encoded signed varint.
func (w *Writer) Varint(x int64) { w.buf = binary.AppendVarint(w.buf, x) }

// U32 appends a fixed-width little-endian uint32.
func (w *Writer) U32(x uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, x) }

// U64 appends a fixed-width little-endian uint64.
func (w *Writer) U64(x uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, x) }

// Float64 appends the IEEE 754 bits of x as a fixed-width word.
func (w *Writer) Float64(x float64) { w.U64(math.Float64bits(x)) }

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Float32s appends a length-prefixed run of raw little-endian float32
// values.
func (w *Writer) Float32s(v []float32) {
	w.Uvarint(uint64(len(v)))
	for _, f := range v {
		w.U32(math.Float32bits(f))
	}
}

// Raw appends bytes verbatim (no length prefix).
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// BlobAlign is the byte alignment of aligned-blob payloads. 64 covers
// cache lines and every element type's natural alignment, and because
// snapshot files are written with offset 0 == file offset 0, a buffer
// holding the whole file finds each blob at an aligned offset and can view
// it as a typed slice.
const BlobAlign = 64

// hostLittleEndian reports whether the running machine stores multi-byte
// words little-endian, in which case typed slices can be reinterpreted as
// their on-disk bytes (the format is little-endian) without per-element
// conversion.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// PadTo appends zero bytes until the accumulated length is a multiple of
// align. Blob encoders call it between a blob's count prefix and its
// payload; it is exported so framing layers can align section starts too.
func (w *Writer) PadTo(align int) {
	for w.Len()%align != 0 {
		w.buf = append(w.buf, 0)
	}
}

// Float32Blob appends a count prefix, zero padding to BlobAlign, and the
// raw little-endian float32 payload. Unlike Float32s, the payload start is
// aligned relative to the buffer start, so a reader over the same buffer
// base (e.g. a snapshot file read whole) can reinterpret it zero-copy.
func (w *Writer) Float32Blob(v []float32) {
	w.Uvarint(uint64(len(v)))
	w.PadTo(BlobAlign)
	if hostLittleEndian {
		w.buf = append(w.buf, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*4)...)
		return
	}
	for _, f := range v {
		w.U32(math.Float32bits(f))
	}
}

// Int32Blob appends a count prefix, padding to BlobAlign, and the raw
// little-endian int32 payload.
func (w *Writer) Int32Blob(v []int32) {
	w.Uvarint(uint64(len(v)))
	w.PadTo(BlobAlign)
	if hostLittleEndian {
		w.buf = append(w.buf, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*4)...)
		return
	}
	for _, x := range v {
		w.U32(uint32(x))
	}
}

// Int8Blob appends a count prefix, padding to BlobAlign, and the raw int8
// payload. Alignment is not needed for single-byte elements but keeps
// blob starts page-shareable and the framing uniform.
func (w *Writer) Int8Blob(v []int8) {
	w.Uvarint(uint64(len(v)))
	w.PadTo(BlobAlign)
	w.buf = append(w.buf, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v))...)
}

// Reader decodes a payload produced by Writer. Errors are sticky: after
// the first failure every method returns a zero value and Err reports
// ErrTruncated.
type Reader struct {
	buf    []byte
	off    int
	err    bool
	shared bool
}

// NewReader wraps a payload for decoding. Decoded strings are copied out
// of the buffer, so the buffer may be reused after decoding.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// NewSharedReader wraps a payload whose backing array is immutable and
// outlives every decoded value — e.g. a snapshot file read once and owned
// by the structures built from it. Strings decode as zero-copy views into
// the buffer instead of fresh allocations, which removes the dominant
// allocation cost of bulk loads; any retained string pins the whole
// buffer, so use NewReader for short-lived or reused buffers.
func NewSharedReader(b []byte) *Reader { return &Reader{buf: b, shared: true} }

// Err returns ErrTruncated if any decode failed, nil otherwise.
func (r *Reader) Err() error {
	if r.err {
		return ErrTruncated
	}
	return nil
}

// Remaining returns the number of undecoded bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Rest returns the undecoded tail of the buffer without consuming it,
// letting a caller hand the remainder to another decoder (e.g. a
// length-prefixed section).
func (r *Reader) Rest() []byte { return r.buf[r.off:] }

// Section consumes the next n bytes and returns a sub-reader over them,
// inheriting the shared-ownership mode — a length-prefixed section parses
// in place with no copy. The sub-reader's offsets restart at 0, so
// aligned blobs must not be decoded through it (their padding is relative
// to the enclosing buffer's start); varint/string/fixed-width sections
// are safe. Returns an empty poisoned reader if fewer than n bytes
// remain.
func (r *Reader) Section(n int) *Reader {
	if r.err || n < 0 || n > len(r.buf)-r.off {
		r.fail()
		return &Reader{err: true}
	}
	sub := &Reader{buf: r.buf[r.off : r.off+n], shared: r.shared}
	r.off += n
	return sub
}

func (r *Reader) fail() { r.err = true }

// Skip consumes n bytes without decoding them (e.g. a fixed-width header
// already parsed by other means).
func (r *Reader) Skip(n int) {
	if r.err || n < 0 || n > len(r.buf)-r.off {
		r.fail()
		return
	}
	r.off += n
}

// alignTo consumes the zero padding between a blob's count prefix and its
// payload, leaving the offset at the next multiple of align relative to
// the buffer start. Blob framing therefore requires the reader's buffer to
// begin where the writer's did (offset 0 == file offset 0).
func (r *Reader) alignTo(align int) {
	if r.err {
		return
	}
	pad := (align - r.off%align) % align
	if pad > len(r.buf)-r.off {
		r.fail()
		return
	}
	r.off += pad
}

// blob consumes a count prefix, padding and count*size payload bytes,
// returning the payload view and count. ok is false (and the reader
// poisoned) on truncation or a crafted count.
func (r *Reader) blob(size int) (b []byte, n int, ok bool) {
	c := r.Uvarint()
	r.alignTo(BlobAlign)
	// Compare by division, not c*size: a crafted count near 2^62 would
	// wrap the multiplication and pass the bounds check.
	if r.err || c > uint64((len(r.buf)-r.off)/size) {
		r.fail()
		return nil, 0, false
	}
	n = int(c)
	b = r.buf[r.off : r.off+n*size]
	r.off += n * size
	return b, n, true
}

// Float32Blob decodes an aligned float32 blob. For a NewSharedReader on a
// little-endian host the returned slice is a zero-copy view of the buffer
// with len == cap (appends copy, never scribble on the buffer); otherwise
// it is a fresh copy. Either way the values are identical.
func (r *Reader) Float32Blob() []float32 {
	b, n, ok := r.blob(4)
	if !ok || n == 0 {
		return nil
	}
	if r.shared && hostLittleEndian && uintptr(unsafe.Pointer(unsafe.SliceData(b)))%4 == 0 {
		return unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(b))), n)
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

// Int32Blob decodes an aligned int32 blob (zero-copy under the same
// conditions as Float32Blob).
func (r *Reader) Int32Blob() []int32 {
	b, n, ok := r.blob(4)
	if !ok || n == 0 {
		return nil
	}
	if r.shared && hostLittleEndian && uintptr(unsafe.Pointer(unsafe.SliceData(b)))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(b))), n)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

// Int8Blob decodes an aligned int8 blob (zero-copy for a NewSharedReader;
// single-byte elements need no alignment or byte-order handling).
func (r *Reader) Int8Blob() []int8 {
	b, n, ok := r.blob(1)
	if !ok || n == 0 {
		return nil
	}
	if r.shared {
		return unsafe.Slice((*int8)(unsafe.Pointer(unsafe.SliceData(b))), n)
	}
	out := make([]int8, n)
	for i := range out {
		out[i] = int8(b[i])
	}
	return out
}

// Byte decodes one raw byte.
func (r *Reader) Byte() byte {
	if r.err || r.off >= len(r.buf) {
		r.fail()
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Uvarint decodes an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err {
		return 0
	}
	x, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return x
}

// Varint decodes a zigzag-encoded signed varint.
func (r *Reader) Varint() int64 {
	if r.err {
		return 0
	}
	x, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return x
}

// U32 decodes a fixed-width little-endian uint32.
func (r *Reader) U32() uint32 {
	if r.err || r.off+4 > len(r.buf) {
		r.fail()
		return 0
	}
	x := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return x
}

// U64 decodes a fixed-width little-endian uint64.
func (r *Reader) U64() uint64 {
	if r.err || r.off+8 > len(r.buf) {
		r.fail()
		return 0
	}
	x := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return x
}

// Float64 decodes a fixed-width IEEE 754 double.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.U64()) }

// String decodes a length-prefixed string (a zero-copy view for a
// NewSharedReader, a fresh copy otherwise).
func (r *Reader) String() string {
	n := r.Uvarint()
	if r.err || n > uint64(len(r.buf)-r.off) {
		r.fail()
		return ""
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	if !r.shared || len(b) == 0 {
		return string(b)
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// ReadUvarint reads one unsigned varint from br, adding the consumed byte
// count to *read. It is the streaming counterpart of Reader.Uvarint,
// shared by every length-prefixed section decoder so the 10-byte overflow
// guard and byte accounting live in one place.
func ReadUvarint(br io.ByteReader, read *int64) (uint64, error) {
	var x uint64
	var s uint
	for i := 0; ; i++ {
		b, err := br.ReadByte()
		if err != nil {
			return 0, err
		}
		*read++
		if i == 10 {
			return 0, errors.New("wire: varint overflows uint64")
		}
		if b < 0x80 {
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
}

// Float32s decodes a length-prefixed run of raw float32 values.
func (r *Reader) Float32s() []float32 {
	n := r.Uvarint()
	// Compare by division, not n*4: a crafted count near 2^62 would wrap
	// the multiplication, pass the bounds check and panic in make.
	if r.err || n > uint64(len(r.buf)-r.off)/4 {
		r.fail()
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(r.buf[r.off:]))
		r.off += 4
	}
	return out
}
