package wire

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzReader throws arbitrary bytes at the Reader and walks an arbitrary
// decode sequence over them, in both owned and shared modes. The decoder
// sits under every persistence surface (segment records, snapshots, the
// hnsw/bm25 serializers), so the contract it must keep against hostile
// input is strict:
//
//   - no call ever panics or reads past the buffer (Remaining is never
//     negative and never grows);
//   - errors are sticky: once Err is non-nil it stays non-nil, and the
//     only error ever reported is ErrTruncated;
//   - length-prefixed values are bounded by the input (a crafted count
//     can never cause an allocation larger than the bytes backing it);
//   - Uvarint agrees with the streaming ReadUvarint whenever it succeeds.
func FuzzReader(f *testing.F) {
	// Seed with a buffer exercising every encoder, plus a script that
	// visits every decode op in order. Ops 9 and 10 decoded the int32 and
	// int8 blobs the format no longer has; they are no-ops now, so every
	// other op keeps its number and a corpus entry keeps its meaning.
	var w Writer
	w.Byte(7)
	w.Uvarint(300)
	w.Varint(-5)
	w.U32(0xdeadbeef)
	w.U64(1 << 40)
	w.Float64(3.14)
	w.String("hello wire")
	w.Float32s([]float32{1, 2, 3})
	w.Float32Blob([]float32{4, 5})
	script := make([]byte, 0, 16)
	for op := byte(0); op < 16; op++ {
		script = append(script, op)
	}
	f.Add(script, append([]byte(nil), w.Bytes()...))
	f.Add([]byte{1, 1, 1, 1}, []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02})
	f.Add([]byte{6, 7, 8}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{11, 0, 11}, []byte{})

	f.Fuzz(func(t *testing.T, script, data []byte) {
		for _, shared := range []bool{false, true} {
			var r *Reader
			if shared {
				r = NewSharedReader(data)
			} else {
				r = NewReader(data)
			}
			if r.Remaining() != len(data) {
				t.Fatalf("fresh reader Remaining = %d, want %d", r.Remaining(), len(data))
			}
			prev := r.Remaining()
			for _, op := range script {
				failedBefore := r.Err() != nil
				switch op % 16 {
				case 0:
					r.Byte()
				case 1:
					r.Uvarint()
				case 2:
					r.Varint()
				case 3:
					r.U32()
				case 4:
					r.U64()
				case 5:
					r.Float64()
				case 6:
					if s := r.String(); len(s) > len(data) {
						t.Fatalf("String longer than input: %d > %d", len(s), len(data))
					}
				case 7:
					if v := r.Float32s(); len(v)*4 > len(data) {
						t.Fatalf("Float32s longer than input: %d values in %d bytes", len(v), len(data))
					}
				case 8:
					if v := r.Float32Blob(); len(v)*4 > len(data) {
						t.Fatalf("Float32Blob longer than input: %d values in %d bytes", len(v), len(data))
					}
				case 11:
					sub := r.Section(int(op))
					if sub.Remaining() > len(data) {
						t.Fatalf("Section wider than input: %d > %d", sub.Remaining(), len(data))
					}
					sub.Byte()
					sub.Uvarint()
					_ = sub.String()
					if sub.Remaining() < 0 {
						t.Fatalf("sub-reader Remaining negative: %d", sub.Remaining())
					}
				case 12:
					r.Skip(int(op))
				case 13:
					if rest := r.Rest(); len(rest) != r.Remaining() {
						t.Fatalf("Rest = %d bytes, Remaining = %d", len(rest), r.Remaining())
					}
				case 14:
					r.Remaining()
				case 15:
					// Differential check: if the in-memory Uvarint succeeds,
					// the streaming decoder over the same bytes must return
					// the same value having consumed the same count.
					if r.Err() != nil {
						r.Uvarint()
						break
					}
					rest := append([]byte(nil), r.Rest()...)
					before := r.Remaining()
					got := r.Uvarint()
					if r.Err() != nil {
						break
					}
					var cnt int64
					want, werr := ReadUvarint(bytes.NewReader(rest), &cnt)
					if werr != nil {
						t.Fatalf("Uvarint ok (%d) but ReadUvarint failed: %v", got, werr)
					}
					if want != got || cnt != int64(before-r.Remaining()) {
						t.Fatalf("Uvarint = %d (%d bytes), ReadUvarint = %d (%d bytes)",
							got, before-r.Remaining(), want, cnt)
					}
				}
				rem := r.Remaining()
				if rem < 0 {
					t.Fatalf("Remaining negative: %d", rem)
				}
				if rem > prev {
					t.Fatalf("Remaining grew: %d -> %d", prev, rem)
				}
				prev = rem
				if failedBefore && r.Err() == nil {
					t.Fatal("sticky error cleared")
				}
			}
			if err := r.Err(); err != nil && !errors.Is(err, ErrTruncated) {
				t.Fatalf("Err = %v, want ErrTruncated", err)
			}
		}
	})
}
