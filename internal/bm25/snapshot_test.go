package bm25

import (
	"bytes"
	"fmt"
	"testing"

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
// replaced document) scoring against local statistics and restores it:
// searches, live counts and further mutations must match exactly.
func TestSnapshotRoundTripLocal(t *testing.T) {
	orig := New(Params{})
	for _, d := range corpusDocs(40) {
		orig.Add(d.id, d.text)
	}
	orig.Delete("d003")
	orig.Delete("d010")
	orig.Add("d005", "replacement text about rainfall and yield")

	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored := New(Params{})
	if err := restored.ReadFromShared(wire.NewSharedReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != orig.Len() {
		t.Fatalf("restored Len = %d, want %d", restored.Len(), orig.Len())
	}
	assertSameSearch(t, orig, restored)

	// Mutations after the restore must track exactly too (df counters,
	// postings windows, tombstone bookkeeping).
	for _, ix := range []*Index{orig, restored} {
		ix.Delete("d007")
		ix.Add("d100", "fresh post-restore document about turbine output readings")
	}
	assertSameSearch(t, orig, restored)
}

// TestSnapshotRoundTripSharedStats restores two serialized shard indexes
// against one fresh Stats object (via the deferred-attach path the
// retriever uses) and requires scores identical to the live shards.
func TestSnapshotRoundTripSharedStats(t *testing.T) {
	st := NewStats()
	shards := []*Index{NewWithStats(Params{}, st), NewWithStats(Params{}, st)}
	for i, d := range corpusDocs(30) {
		shards[i%2].Add(d.id, d.text)
	}
	shards[0].Delete("d004")

	st2 := NewStats()
	restored := make([]*Index, 2)
	for i, ix := range shards {
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		re := New(Params{})
		re.DeferStats()
		if err := re.ReadFromShared(wire.NewSharedReader(buf.Bytes())); err != nil {
			t.Fatal(err)
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
// index and truncated input, both leaving the index and shared stats
// untouched.
func TestSnapshotErrorsBM25(t *testing.T) {
	orig := New(Params{})
	for _, d := range corpusDocs(20) {
		orig.Add(d.id, d.text)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}

	nonEmpty := New(Params{})
	nonEmpty.Add("x", "already populated")
	if err := nonEmpty.ReadFromShared(wire.NewSharedReader(buf.Bytes())); err == nil {
		t.Fatal("ReadFromShared into non-empty index succeeded")
	}

	st := NewStats()
	truncated := NewWithStats(Params{}, st)
	if err := truncated.ReadFromShared(wire.NewSharedReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Fatal("ReadFromShared of truncated section succeeded")
	}
	if truncated.Len() != 0 || st.DocCount() != 0 {
		t.Fatalf("failed restore leaked state: Len=%d stats=%d", truncated.Len(), st.DocCount())
	}
}

// TestCompact verifies the in-place compaction: identical search results,
// live-only document table, and untouched shared statistics.
func TestCompact(t *testing.T) {
	st := NewStats()
	ix := NewWithStats(Params{}, st)
	for _, d := range corpusDocs(30) {
		ix.Add(d.id, d.text)
	}
	for i := 0; i < 15; i++ {
		ix.Delete(fmt.Sprintf("d%03d", i*2))
	}
	beforeDocs, beforeLen := st.DocCount(), st.AvgDocLen()
	liveBefore := ix.Len()
	queries := []string{"rainfall station readings", "freight manifest", "potassium",
		"shared vocabulary terms", "turbine warehouse"}
	before := make([][]Result, len(queries))
	for i, q := range queries {
		before[i] = ix.Search(q, 10)
	}

	ix.Compact()
	if st.DocCount() != beforeDocs || st.AvgDocLen() != beforeLen {
		t.Fatal("Compact mutated the shared stats")
	}
	if ix.Len() != liveBefore {
		t.Fatalf("compacted Len = %d, want %d", ix.Len(), liveBefore)
	}
	if v := ix.view.Load(); len(v.docs) != liveBefore {
		t.Fatalf("compacted doc table has %d slots for %d live docs", len(v.docs), liveBefore)
	}
	for i, q := range queries {
		after := ix.Search(q, 10)
		if len(after) != len(before[i]) {
			t.Fatalf("%q: %d vs %d results after compaction", q, len(before[i]), len(after))
		}
		for j := range after {
			if after[j] != before[i][j] {
				t.Fatalf("%q rank %d: %+v vs %+v after compaction", q, j, before[i][j], after[j])
			}
		}
	}
	// Compaction must stay transparent to later mutations too.
	ix.Add("d900", "fresh turbine output readings after compaction")
	if res := ix.Search("turbine output", 5); len(res) == 0 {
		t.Fatal("post-compaction add not searchable")
	}
}
