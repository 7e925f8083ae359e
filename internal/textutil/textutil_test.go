package textutil

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"k_ppm", []string{"k", "ppm"}},
		{"avg-potassium ppm", []string{"avg", "potassium", "ppm"}},
		{"", nil},
		{"   ", nil},
		{"a1b2", []string{"a1b2"}},
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestStem(t *testing.T) {
	cases := map[string]string{
		"studies":   "study",
		"tables":    "table",
		"classes":   "class",
		"process":   "process",
		"running":   "runn",
		"recorded":  "record",
		"sampling":  "sampl",
		"gas":       "gas", // too short for the -s rule
		"bus":       "bus",
		"potassium": "potassium",
	}
	for in, want := range cases {
		if got := string(stem([]byte(in))); got != want {
			t.Errorf("stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNormalizeTokensDropsStopwords(t *testing.T) {
	got := NormalizeTokens("What is the average of the samples?")
	for _, tok := range got {
		if IsStopword(tok) {
			t.Errorf("stopword %q survived normalization", tok)
		}
	}
	// "average" and "sample" must survive.
	found := map[string]bool{}
	for _, tok := range got {
		found[tok] = true
	}
	if !found["average"] || !found["sample"] {
		t.Errorf("NormalizeTokens lost content words: %v", got)
	}
}

func TestJaccard(t *testing.T) {
	if got := Jaccard([]string{"a", "b"}, []string{"a", "b"}); got != 1 {
		t.Errorf("identical sets: %v, want 1", got)
	}
	if got := Jaccard([]string{"a"}, []string{"b"}); got != 0 {
		t.Errorf("disjoint sets: %v, want 0", got)
	}
	if got := Jaccard([]string{"a", "b"}, []string{"b", "c"}); got != 1.0/3.0 {
		t.Errorf("overlap: %v, want 1/3", got)
	}
	if got := Jaccard(nil, []string{"a"}); got != 0 {
		t.Errorf("empty input: %v, want 0", got)
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"same", "same", 0},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinProperties(t *testing.T) {
	symmetric := func(a, b string) bool {
		if len(a) > 30 || len(b) > 30 {
			return true
		}
		return Levenshtein(a, b) == Levenshtein(b, a)
	}
	if err := quick.Check(symmetric, &quick.Config{MaxCount: 50}); err != nil {
		t.Error("symmetry:", err)
	}
	identity := func(a string) bool {
		if len(a) > 50 {
			return true
		}
		return Levenshtein(a, a) == 0
	}
	if err := quick.Check(identity, &quick.Config{MaxCount: 50}); err != nil {
		t.Error("identity:", err)
	}
}

func TestSimilarity(t *testing.T) {
	if Similarity("abc", "abc") != 1 {
		t.Error("identical strings must have similarity 1")
	}
	if s := Similarity("supplier_id", "supplier_code"); s <= 0.4 {
		t.Errorf("related identifiers should be similar, got %v", s)
	}
	if s := Similarity("abc", "xyz"); s != 0 {
		t.Errorf("disjoint strings: %v, want 0", s)
	}
}

func TestTokenOverlap(t *testing.T) {
	if got := TokenOverlap("potassium ppm", "Potassium concentration in parts per million (ppm)"); got != 1 {
		t.Errorf("full containment should be 1, got %v", got)
	}
	if got := TokenOverlap("zirconium", "potassium levels"); got != 0 {
		t.Errorf("no overlap should be 0, got %v", got)
	}
}
