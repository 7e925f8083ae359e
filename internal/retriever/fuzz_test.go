package retriever

import (
	"errors"
	"testing"

	"pneuma/internal/docs"
	"pneuma/internal/table"
	"pneuma/internal/value"
	"pneuma/internal/wire"
)

// FuzzDecodeRecord is the segment-record codec's hostile-input contract:
// whatever payload bytes arrive (a torn tail, a bit-flipped frame, pure
// garbage), decodeRecord must never panic, never read past the payload,
// and reject anything malformed with the one typed error replay keys its
// truncation decision on. A successful decode must be internally
// consistent — a known op, a vector of exactly the shard's
// dimensionality for adds, and a document carrying the record's ID.
func FuzzDecodeRecord(f *testing.F) {
	// Seed the corpus with well-formed frames so the fuzzer starts from
	// the interesting part of the input space: a plain add, an add
	// carrying a full table payload, and a delete tombstone.
	plain := docs.Document{
		ID:      "doc-00001",
		Kind:    docs.KindKnowledge,
		Title:   "river nitrate",
		Content: "nitrate readings along the river basin",
		Source:  "sensor-7",
		Meta:    map[string]string{"unit": "mg/L", "year": "2024"},
	}
	tab := table.FromRows(table.Schema{
		Name:        "rivers",
		Description: "water quality samples",
		Columns: []table.Column{
			{Name: "station", Type: value.KindString, Description: "site", Unit: ""},
			{Name: "nitrate", Type: value.KindFloat, Description: "reading", Unit: "mg/L"},
		},
	}, []table.Row{
		{value.String("st-1"), value.Float(2.5)},
		{value.String("st-2"), value.Null()},
	})
	tabled := docs.Document{
		ID:      "table:rivers",
		Kind:    docs.KindTable,
		Title:   "rivers",
		Content: "rivers water quality samples",
		Table:   tab,
	}
	var w wire.Writer
	for _, d := range []docs.Document{plain, tabled} {
		w.Reset()
		w.Byte(opAdd)
		w.String(d.ID)
		w.Float32s([]float32{0.1, 0.2, 0.3, 0.4})
		encodeDoc(&w, d)
		f.Add(append([]byte(nil), w.Bytes()...), uint16(4))
	}
	w.Reset()
	w.Byte(opDel)
	w.String("doc-00001")
	f.Add(append([]byte(nil), w.Bytes()...), uint16(4))
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{opAdd}, uint16(8))
	f.Add([]byte{0xff, 0x03, 'x'}, uint16(1))

	f.Fuzz(func(t *testing.T, payload []byte, dim uint16) {
		rec, err := decodeRecord(payload, int(dim))
		if err != nil {
			if !errors.Is(err, errBadRecord) {
				t.Fatalf("decodeRecord returned untyped error %v", err)
			}
			return
		}
		switch rec.op {
		case opAdd:
			if len(rec.vec) != int(dim) {
				t.Fatalf("add decoded with dim %d, index wants %d", len(rec.vec), dim)
			}
			if rec.doc.ID != rec.id {
				t.Fatalf("add decoded doc ID %q under record ID %q", rec.doc.ID, rec.id)
			}
		case opDel:
			if rec.vec != nil || rec.doc.ID != "" {
				t.Fatal("delete decoded with add-side payload")
			}
		default:
			t.Fatalf("decoded unknown op %d", rec.op)
		}
	})
}
