package wire

import (
	"math"
	"testing"
)

// TestRoundTrip encodes one of each primitive and decodes it back.
func TestRoundTrip(t *testing.T) {
	var w Writer
	w.Byte(7)
	w.Uvarint(0)
	w.Uvarint(1 << 40)
	w.Varint(-12345)
	w.Varint(math.MaxInt64)
	w.U32(0xdeadbeef)
	w.U64(0x0123456789abcdef)
	w.Float64(-math.Pi)
	w.String("")
	w.String("snapshot κείμενο")
	w.Float32s([]float32{1.5, -0.25, float32(math.Inf(1))})

	r := NewReader(w.Bytes())
	if got := r.Byte(); got != 7 {
		t.Fatalf("Byte = %d", got)
	}
	if got := r.Uvarint(); got != 0 {
		t.Fatalf("Uvarint = %d", got)
	}
	if got := r.Uvarint(); got != 1<<40 {
		t.Fatalf("Uvarint = %d", got)
	}
	if got := r.Varint(); got != -12345 {
		t.Fatalf("Varint = %d", got)
	}
	if got := r.Varint(); got != math.MaxInt64 {
		t.Fatalf("Varint = %d", got)
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Fatalf("U32 = %x", got)
	}
	if got := r.U64(); got != 0x0123456789abcdef {
		t.Fatalf("U64 = %x", got)
	}
	if got := r.Float64(); got != -math.Pi {
		t.Fatalf("Float64 = %v", got)
	}
	if got := r.String(); got != "" {
		t.Fatalf("String = %q", got)
	}
	if got := r.String(); got != "snapshot κείμενο" {
		t.Fatalf("String = %q", got)
	}
	fs := r.Float32s()
	if len(fs) != 3 || fs[0] != 1.5 || fs[1] != -0.25 || !math.IsInf(float64(fs[2]), 1) {
		t.Fatalf("Float32s = %v", fs)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bytes left over", r.Remaining())
	}
}

// TestStickyErrors verifies truncated input poisons the reader and every
// later call returns a zero value instead of panicking or misreading.
func TestStickyErrors(t *testing.T) {
	var w Writer
	w.String("hello")
	buf := w.Bytes()

	r := NewReader(buf[:3]) // length prefix promises more than is there
	if got := r.String(); got != "" {
		t.Fatalf("truncated String = %q", got)
	}
	if r.Err() == nil {
		t.Fatal("no error after truncated decode")
	}
	// Sticky: everything after the failure is zero.
	if r.Byte() != 0 || r.Uvarint() != 0 || r.U64() != 0 || r.String() != "" || r.Float32s() != nil {
		t.Fatal("poisoned reader returned non-zero values")
	}

	r2 := NewReader(nil)
	if r2.Uvarint() != 0 || r2.Err() == nil {
		t.Fatal("empty reader did not fail")
	}
}

// TestSharedReaderZeroCopy verifies NewSharedReader strings alias the
// buffer (no copy) while NewReader strings do not.
func TestSharedReaderZeroCopy(t *testing.T) {
	var w Writer
	w.String("aliased")
	buf := append([]byte(nil), w.Bytes()...)

	shared := NewSharedReader(buf).String()
	copied := NewReader(buf).String()
	if shared != "aliased" || copied != "aliased" {
		t.Fatalf("decoded %q / %q", shared, copied)
	}
	// Mutating the buffer must show through the shared string only.
	buf[len(buf)-1] ^= 0xff
	if shared == "aliased" {
		t.Fatal("shared string did not alias the buffer")
	}
	if copied != "aliased" {
		t.Fatal("copying reader aliased the buffer")
	}
}

// TestAlignedBlobs round-trips the aligned-blob primitives through both
// reader flavors, checks payload alignment relative to the buffer start,
// and pins zero-copy aliasing for shared readers.
func TestAlignedBlobs(t *testing.T) {
	f := []float32{1.5, -2.25, 3.125, 0, -0.5}
	i32 := []int32{-1, 0, 1, 1 << 30, -(1 << 30)}
	i8 := []int8{-128, -1, 0, 1, 127, 42, -42}

	var w Writer
	w.String("preamble of odd length!") // force a non-aligned start
	w.Float32Blob(f)
	w.Int32Blob(i32)
	w.Int8Blob(i8)
	w.Float32Blob(nil) // empty blob
	w.Uvarint(7)       // trailing field after blobs
	buf := append([]byte(nil), w.Bytes()...)

	for _, shared := range []bool{false, true} {
		var r *Reader
		if shared {
			r = NewSharedReader(buf)
		} else {
			r = NewReader(buf)
		}
		if got := r.String(); got != "preamble of odd length!" {
			t.Fatalf("shared=%v preamble = %q", shared, got)
		}
		gf := r.Float32Blob()
		gi32 := r.Int32Blob()
		gi8 := r.Int8Blob()
		ge := r.Float32Blob()
		tail := r.Uvarint()
		if err := r.Err(); err != nil {
			t.Fatalf("shared=%v decode error: %v", shared, err)
		}
		if len(gf) != len(f) || len(gi32) != len(i32) || len(gi8) != len(i8) || ge != nil || tail != 7 {
			t.Fatalf("shared=%v lengths/tail wrong: %d %d %d %d %d", shared, len(gf), len(gi32), len(gi8), len(ge), tail)
		}
		for i := range f {
			if gf[i] != f[i] {
				t.Fatalf("shared=%v float32[%d] = %v, want %v", shared, i, gf[i], f[i])
			}
		}
		for i := range i32 {
			if gi32[i] != i32[i] {
				t.Fatalf("shared=%v int32[%d] = %v, want %v", shared, i, gi32[i], i32[i])
			}
		}
		for i := range i8 {
			if gi8[i] != i8[i] {
				t.Fatalf("shared=%v int8[%d] = %v, want %v", shared, i, gi8[i], i8[i])
			}
		}
		if shared && cap(gf) != len(gf) {
			t.Fatal("shared blob view must have len == cap so appends copy")
		}
	}
}

// TestBlobAlignmentRelativeToBufferStart verifies every blob payload lands
// on a BlobAlign boundary measured from the buffer start — the invariant
// the zero-copy snapshot load depends on.
func TestBlobAlignmentRelativeToBufferStart(t *testing.T) {
	for pre := 0; pre < 70; pre += 7 {
		var w Writer
		w.Raw(make([]byte, pre))
		w.Float32Blob([]float32{1})
		// Payload is the last 4 bytes; its offset must be aligned.
		off := w.Len() - 4
		if off%BlobAlign != 0 {
			t.Fatalf("preamble %d: payload offset %d not %d-aligned", pre, off, BlobAlign)
		}
	}
}

// TestBlobTruncation checks crafted counts and torn payloads poison the
// reader instead of panicking.
func TestBlobTruncation(t *testing.T) {
	var w Writer
	w.Float32Blob([]float32{1, 2, 3})
	whole := append([]byte(nil), w.Bytes()...)

	if r := NewReader(whole[:len(whole)-2]); r.Float32Blob() != nil || r.Err() == nil {
		t.Fatal("torn payload did not poison the reader")
	}
	var w2 Writer
	w2.Uvarint(1 << 62) // crafted count that would wrap n*4
	if r := NewReader(append([]byte(nil), w2.Bytes()...)); r.Float32Blob() != nil || r.Err() == nil {
		t.Fatal("crafted count did not poison the reader")
	}
	if r := NewReader(whole); r.Int8Blob() == nil {
		// Int8Blob over float bytes is legal (reinterprets 12 bytes)...
		t.Log("note: int8 view of float payload decodes; format is untyped")
	}
}

// TestReaderSkip pins Skip semantics including over-skip poisoning.
func TestReaderSkip(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	r.Skip(2)
	if got := r.Byte(); got != 3 || r.Err() != nil {
		t.Fatalf("after Skip(2): byte %d err %v", got, r.Err())
	}
	r2 := NewReader([]byte{1})
	r2.Skip(5)
	if r2.Err() == nil {
		t.Fatal("over-skip did not poison the reader")
	}
}
