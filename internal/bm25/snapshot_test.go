package bm25

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"pneuma/internal/pnerr"
	"pneuma/internal/wire"
)

// corpusDocs is a small deterministic corpus with vocabulary overlap.
func corpusDocs(n int) []struct{ id, text string } {
	subjects := []string{"rainfall station", "freight manifest", "turbine output",
		"warehouse stock", "portfolio yield", "soil potassium"}
	out := make([]struct{ id, text string }, n)
	for i := range out {
		out[i].id = fmt.Sprintf("d%03d", i)
		out[i].text = fmt.Sprintf("%s readings series %d with shared vocabulary terms and %s",
			subjects[i%len(subjects)], i, subjects[(i+1)%len(subjects)])
	}
	return out
}

// assertSameSearch requires two indexes to agree exactly on a query set.
func assertSameSearch(t *testing.T, a, b *Index) {
	t.Helper()
	for _, q := range []string{"rainfall station readings", "freight manifest", "potassium",
		"shared vocabulary terms", "turbine warehouse"} {
		ra := a.Search(q, 10)
		rb := b.Search(q, 10)
		if len(ra) != len(rb) {
			t.Fatalf("%q: %d vs %d results", q, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("%q rank %d: %+v vs %+v", q, i, ra[i], rb[i])
			}
		}
	}
}

// TestSnapshotRoundTripLocal serializes an index (with tombstones and a
// replaced document) scoring against its private Stats and restores it:
// searches, live counts and further mutations must match exactly.
func TestSnapshotRoundTripLocal(t *testing.T) {
	orig := New(Params{})
	for _, d := range corpusDocs(40) {
		addOne(orig, d.id, d.text)
	}
	deleteOne(orig, "d003")
	deleteOne(orig, "d010")
	addOne(orig, "d005", "replacement text about rainfall and yield")

	var buf wire.Writer
	orig.AppendSnapshot(&buf)
	restored := New(Params{})
	if err := restored.LoadSnapshot(wire.NewSharedReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != orig.Len() {
		t.Fatalf("restored Len = %d, want %d", restored.Len(), orig.Len())
	}
	assertSameSearch(t, orig, restored)

	// Mutations after the restore must track exactly too (df counters,
	// postings windows, tombstone bookkeeping).
	for _, ix := range []*Index{orig, restored} {
		deleteOne(ix, "d007")
		addOne(ix, "d100", "fresh post-restore document about turbine output readings")
	}
	assertSameSearch(t, orig, restored)
}

// TestSnapshotRoundTripSharedStats restores two serialized shard indexes
// against one fresh Stats object (each restored against a private Stats,
// then attached — the path the retriever uses) and requires scores
// identical to the live shards.
func TestSnapshotRoundTripSharedStats(t *testing.T) {
	st := NewStats()
	shards := []*Index{NewWithStats(Params{}, st), NewWithStats(Params{}, st)}
	for i, d := range corpusDocs(30) {
		addOne(shards[i%2], d.id, d.text)
	}
	deleteOne(shards[0], "d004")

	st2 := NewStats()
	restored := make([]*Index, 2)
	for i, ix := range shards {
		var buf wire.Writer
		ix.AppendSnapshot(&buf)
		re := New(Params{})
		if err := re.LoadSnapshot(wire.NewSharedReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
		if i == 0 && st2.DocCount() != 0 {
			t.Fatalf("restore touched the shared stats before AttachStats: %d docs", st2.DocCount())
		}
		re.AttachStats(st2)
		restored[i] = re
	}
	if st2.DocCount() != st.DocCount() || st2.AvgDocLen() != st.AvgDocLen() {
		t.Fatalf("restored stats (%d, %v) != live stats (%d, %v)",
			st2.DocCount(), st2.AvgDocLen(), st.DocCount(), st.AvgDocLen())
	}
	for i := range shards {
		assertSameSearch(t, shards[i], restored[i])
	}
}

// TestSnapshotErrors covers the refusal paths: restore into a non-empty
// index, truncated input and a term frequency past int32, all leaving the
// index and shared stats untouched.
func TestSnapshotErrorsBM25(t *testing.T) {
	orig := New(Params{})
	for _, d := range corpusDocs(20) {
		addOne(orig, d.id, d.text)
	}
	var buf wire.Writer
	orig.AppendSnapshot(&buf)

	nonEmpty := New(Params{})
	addOne(nonEmpty, "x", "already populated")
	if err := nonEmpty.LoadSnapshot(wire.NewSharedReader(buf.Bytes())); err == nil {
		t.Fatal("LoadSnapshot into non-empty index succeeded")
	}

	st := NewStats()
	truncated := NewWithStats(Params{}, st)
	if err := truncated.LoadSnapshot(wire.NewSharedReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Fatal("LoadSnapshot of truncated section succeeded")
	}
	if truncated.Len() != 0 || st.DocCount() != 0 {
		t.Fatalf("failed restore leaked state: Len=%d stats=%d", truncated.Len(), st.DocCount())
	}

	// A posting's term frequency is 4 bytes in memory: the largest int32
	// loads, one past it is corruption, never a truncated count.
	for _, tf := range []uint64{math.MaxInt32, math.MaxInt32 + 1, math.MaxUint64} {
		var body wire.Writer
		body.Uvarint(1) // one document: ID, length, live, one term
		body.String("a")
		body.Uvarint(1)
		body.Byte(0)
		body.Uvarint(1)
		body.Uvarint(1) // one term with one posting
		body.Uvarint(1)
		body.String("x")
		body.Uvarint(1)
		body.Uvarint(0)
		body.Uvarint(tf)
		var sec wire.Writer
		sec.Uvarint(uint64(body.Len()))
		sec.Raw(body.Bytes())

		st := NewStats()
		ix := NewWithStats(Params{}, st)
		err := ix.LoadSnapshot(wire.NewSharedReader(sec.Bytes()))
		if tf == math.MaxInt32 {
			if err != nil || ix.Len() != 1 || st.DocFreq("x") != 1 {
				t.Fatalf("tf %d: err %v, Len %d, df %d; want a loaded document", tf, err, ix.Len(), st.DocFreq("x"))
			}
			continue
		}
		if !errors.Is(err, pnerr.ErrIndexCorrupt) {
			t.Fatalf("tf %d: err = %v, want pnerr.ErrIndexCorrupt", tf, err)
		}
		if ix.Len() != 0 || ix.Vocabulary() != 0 || st.DocCount() != 0 || st.DocFreq("x") != 0 {
			t.Fatalf("tf %d: failed restore leaked state: Len=%d vocabulary=%d stats=%d", tf, ix.Len(), ix.Vocabulary(), st.DocCount())
		}
	}
}

// TestAdoptFrom verifies the install segment compaction commits with: a
// shadow built against a private Stats over only the live documents, in
// their original order, is adopted into an index scoring against shared
// Stats. The shared Stats must be untouched, results identical before and
// after, the doc table live-only, and a later insert searchable.
func TestAdoptFrom(t *testing.T) {
	st := NewStats()
	ix := NewWithStats(Params{}, st)
	corpus := corpusDocs(30)
	for _, d := range corpus {
		addOne(ix, d.id, d.text)
	}
	deleted := map[string]bool{}
	for i := 0; i < 15; i++ {
		id := fmt.Sprintf("d%03d", i*2)
		deleteOne(ix, id)
		deleted[id] = true
	}
	beforeDocs, beforeLen := st.DocCount(), st.AvgDocLen()
	liveBefore := ix.Len()
	queries := []string{"rainfall station readings", "freight manifest", "potassium",
		"shared vocabulary terms", "turbine warehouse"}
	before := make([][]Result, len(queries))
	for i, q := range queries {
		before[i] = ix.Search(q, 10)
	}

	shadow := NewWithStats(Params{}, nil)
	for _, d := range corpus {
		if !deleted[d.id] {
			addOne(shadow, d.id, d.text)
		}
	}
	ix.AdoptFrom(shadow)
	if st.DocCount() != beforeDocs || st.AvgDocLen() != beforeLen {
		t.Fatal("AdoptFrom mutated the shared stats")
	}
	if ix.Len() != liveBefore {
		t.Fatalf("adopted Len = %d, want %d", ix.Len(), liveBefore)
	}
	if v := ix.view.Load(); len(v.docs) != liveBefore || v.stats != st {
		t.Fatalf("adopted view: %d doc slots for %d live docs, shared stats attached %v", len(v.docs), liveBefore, v.stats == st)
	}
	for i, q := range queries {
		after := ix.Search(q, 10)
		if len(after) != len(before[i]) {
			t.Fatalf("%q: %d vs %d results after AdoptFrom", q, len(before[i]), len(after))
		}
		for j := range after {
			if after[j] != before[i][j] {
				t.Fatalf("%q rank %d: %+v vs %+v after AdoptFrom", q, j, before[i][j], after[j])
			}
		}
	}
	// The install must stay transparent to later mutations too.
	addOne(ix, "d900", "fresh turbine output readings after compaction")
	if res := ix.Search("turbine output", 5); len(res) == 0 || res[0].ID != "d900" {
		t.Fatalf("post-AdoptFrom add not searchable: %+v", res)
	}
	if st.DocCount() != beforeDocs+1 {
		t.Fatalf("post-AdoptFrom add reached shared stats as %d docs, want %d", st.DocCount(), beforeDocs+1)
	}
}
