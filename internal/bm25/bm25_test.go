package bm25

import (
	"fmt"
	"testing"
)

func docCorpus() *Index {
	ix := New(Params{})
	addOne(ix, "proc", "procurement records purchases suppliers items prices countries")
	addOne(ix, "tariff", "tariff schedule rates countries imports duty percentages")
	addOne(ix, "hr", "employees salaries departments hiring")
	addOne(ix, "potassium", "potassium ppm soil samples chemical measurements malta")
	return ix
}

func TestBasicRanking(t *testing.T) {
	ix := docCorpus()
	res := ix.Search("tariff rates for imports", 4)
	if len(res) == 0 || res[0].ID != "tariff" {
		t.Fatalf("top hit = %v, want tariff", res)
	}
}

func TestNoMatchReturnsNothing(t *testing.T) {
	ix := docCorpus()
	if res := ix.Search("zebra xylophone", 5); len(res) != 0 {
		t.Fatalf("unrelated query matched %v", res)
	}
	if res := ix.Search("", 5); len(res) != 0 {
		t.Fatalf("empty query matched %v", res)
	}
	if res := ix.Search("tariff", 0); len(res) != 0 {
		t.Fatalf("k=0 returned %v", res)
	}
}

func TestTermFrequencySaturation(t *testing.T) {
	ix := New(Params{})
	addOne(ix, "a", "apple apple apple apple apple apple apple apple")
	addOne(ix, "b", "apple banana")
	res := ix.Search("apple", 2)
	if len(res) != 2 {
		t.Fatalf("results = %v", res)
	}
	// Doc a must rank first (higher tf), but not 8x higher (saturation).
	if res[0].ID != "a" {
		t.Fatalf("top = %v, want a", res[0])
	}
	if res[0].Score > res[1].Score*4 {
		t.Errorf("tf saturation too weak: %v vs %v", res[0].Score, res[1].Score)
	}
}

func TestIDFWeighting(t *testing.T) {
	ix := New(Params{})
	// "common" appears everywhere; "rare" once.
	for i := 0; i < 10; i++ {
		addOne(ix, fmt.Sprintf("d%d", i), "common words here")
	}
	addOne(ix, "special", "common rare words")
	res := ix.Search("rare", 3)
	if len(res) != 1 || res[0].ID != "special" {
		t.Fatalf("rare-term query: %v", res)
	}
}

func TestDeleteAndReplace(t *testing.T) {
	ix := docCorpus()
	if !deleteOne(ix, "tariff") {
		t.Fatal("delete failed")
	}
	if deleteOne(ix, "tariff") {
		t.Fatal("double delete should be false")
	}
	for _, r := range ix.Search("tariff", 5) {
		if r.ID == "tariff" {
			t.Fatal("deleted doc surfaced")
		}
	}
	// Replace a doc.
	addOne(ix, "hr", "holiday schedule vacations")
	res := ix.Search("salaries", 5)
	for _, r := range res {
		if r.ID == "hr" {
			t.Fatal("stale content matched after replace")
		}
	}
	res = ix.Search("vacations", 5)
	if len(res) != 1 || res[0].ID != "hr" {
		t.Fatalf("replacement content not searchable: %v", res)
	}
	if ix.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (4 docs, 1 deleted, 1 replaced in place)", ix.Len())
	}
}

func TestTopKBound(t *testing.T) {
	ix := New(Params{})
	for i := 0; i < 50; i++ {
		addOne(ix, fmt.Sprintf("d%d", i), "shared token corpus")
	}
	res := ix.Search("shared corpus", 7)
	if len(res) != 7 {
		t.Fatalf("topk = %d, want 7", len(res))
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	ix := New(Params{})
	addOne(ix, "b", "same words")
	addOne(ix, "a", "same words")
	res := ix.Search("same words", 2)
	if res[0].ID != "a" || res[1].ID != "b" {
		t.Fatalf("ties must break by ID: %v", res)
	}
}

func TestStemmedMatching(t *testing.T) {
	ix := New(Params{})
	addOne(ix, "d", "recorded samples from studies")
	if res := ix.Search("record sample study", 1); len(res) != 1 {
		t.Fatalf("stemmed query failed: %v", res)
	}
}

func TestVocabulary(t *testing.T) {
	ix := New(Params{})
	addOne(ix, "a", "one two three")
	if v := ix.Vocabulary(); v != 3 {
		t.Fatalf("vocab = %d, want 3", v)
	}
}
