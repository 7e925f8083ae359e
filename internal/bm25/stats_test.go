package bm25

import (
	"fmt"
	"math"
	"testing"
)

// statsDocs is a tiny corpus with skewed term distribution, so per-shard
// statistics would diverge hard from the global ones.
func statsDocs() []struct{ id, text string } {
	out := []struct{ id, text string }{
		{"d0", "tariff schedule for imported steel and aluminum"},
		{"d1", "soil potassium concentration in malta region"},
		{"d2", "rainfall station readings for malta"},
		{"d3", "steel warehouse inventory and reorder levels"},
		{"d4", "vessel gross tonnage registry"},
		{"d5", "portfolio bond yield and maturity dates"},
	}
	for i := 0; i < 10; i++ {
		out = append(out, struct{ id, text string }{
			fmt.Sprintf("pad%d", i),
			fmt.Sprintf("filler document number %d about miscellaneous records", i),
		})
	}
	return out
}

// TestSharedStatsMatchSingleIndex splits a corpus across two indexes
// sharing one Stats object and requires every document's score to equal
// the score a single combined index assigns.
func TestSharedStatsMatchSingleIndex(t *testing.T) {
	docs := statsDocs()
	single := New(Params{})
	st := NewStats()
	shards := []*Index{NewWithStats(Params{}, st), NewWithStats(Params{}, st)}
	for i, d := range docs {
		addOne(single, d.id, d.text)
		addOne(shards[i%2], d.id, d.text)
	}

	for _, q := range []string{"steel", "malta rainfall", "potassium concentration", "records"} {
		want := map[string]float64{}
		for _, r := range single.Search(q, 100) {
			want[r.ID] = r.Score
		}
		got := map[string]float64{}
		for _, sh := range shards {
			for _, r := range sh.Search(q, 100) {
				got[r.ID] = r.Score
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%q: hit sets differ: %v vs %v", q, got, want)
		}
		for id, w := range want {
			if g, ok := got[id]; !ok || math.Abs(g-w) > 1e-12 {
				t.Fatalf("%q doc %s: sharded score %v, single-index score %v", q, id, g, w)
			}
		}
	}
}

// TestStatsDeleteAndReplace verifies deletes and re-adds keep the shared
// statistics exact.
func TestStatsDeleteAndReplace(t *testing.T) {
	st := NewStats()
	ix := NewWithStats(Params{}, st)
	addOne(ix, "a", "alpha beta gamma")
	addOne(ix, "b", "alpha delta")
	if st.DocCount() != 2 || st.DocFreq("alpha") != 2 || st.DocFreq("beta") != 1 {
		t.Fatalf("after adds: docs=%d df(alpha)=%d df(beta)=%d",
			st.DocCount(), st.DocFreq("alpha"), st.DocFreq("beta"))
	}
	// Replacement swaps the old contribution for the new one.
	addOne(ix, "a", "epsilon zeta")
	if st.DocCount() != 2 || st.DocFreq("alpha") != 1 || st.DocFreq("beta") != 0 || st.DocFreq("epsilon") != 1 {
		t.Fatalf("after replace: docs=%d df(alpha)=%d df(beta)=%d df(epsilon)=%d",
			st.DocCount(), st.DocFreq("alpha"), st.DocFreq("beta"), st.DocFreq("epsilon"))
	}
	if !deleteOne(ix, "b") {
		t.Fatal("delete failed")
	}
	if st.DocCount() != 1 || st.DocFreq("alpha") != 0 || st.DocFreq("delta") != 0 {
		t.Fatalf("after delete: docs=%d df(alpha)=%d df(delta)=%d",
			st.DocCount(), st.DocFreq("alpha"), st.DocFreq("delta"))
	}
	if st.AvgDocLen() != 2 {
		t.Fatalf("avgdl = %v, want 2", st.AvgDocLen())
	}
}
