package retriever

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"pneuma/internal/value"
	"pneuma/internal/wire"
)

// TestTimeCellCodecRoundTrip pins the segment format of a time cell — kind
// byte 5, varint Unix seconds, uvarint nanoseconds — against bytes written
// without going through value.Value, and checks the instant survives the
// trip. value.Value keeps a time as exactly those two numbers, so its layout
// must not leak into the file.
func TestTimeCellCodecRoundTrip(t *testing.T) {
	instants := []time.Time{
		{},
		time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC),
		time.Date(1, 12, 31, 23, 59, 59, 0, time.UTC),
		time.Date(1969, 12, 31, 23, 59, 59, 999_999_999, time.UTC),
		time.Unix(0, 0).UTC(),
		time.Date(2024, 2, 29, 12, 30, 15, 999_999_999, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999_999_999, time.UTC),
		time.Date(2021, 6, 1, 1, 30, 0, 5, time.FixedZone("east", 5*3600+1800)),
	}
	for _, in := range instants {
		want := binary.AppendUvarint(binary.AppendVarint([]byte{cellTime}, in.Unix()), uint64(in.Nanosecond()))
		var w wire.Writer
		encodeValue(&w, value.Time(in))
		if !bytes.Equal(w.Bytes(), want) {
			t.Errorf("%v encodes to % x, want % x", in, w.Bytes(), want)
		}
		r := wire.NewReader(w.Bytes())
		got, err := decodeValue(r)
		if err != nil || r.Err() != nil || r.Remaining() != 0 {
			t.Fatalf("%v: decode: %v / %v, %d bytes left", in, err, r.Err(), r.Remaining())
		}
		if got.Kind() != value.KindTime || got.TimeVal() != in.UTC() {
			t.Errorf("%v came back as %v (%v)", in, got.TimeVal(), got.Kind())
		}
	}
}
