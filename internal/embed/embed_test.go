package embed

import (
	"math"
	"testing"
	"testing/quick"

	"pneuma/internal/vecmath"
)

func TestDeterministic(t *testing.T) {
	e := New()
	a := e.Embed("procurement prices from german suppliers")
	b := e.Embed("procurement prices from german suppliers")
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("embedding is not deterministic")
		}
	}
}

func TestUnitNorm(t *testing.T) {
	e := New()
	v := e.Embed("potassium concentration samples")
	n := float64(vecmath.Norm(v))
	if math.Abs(n-1) > 1e-5 {
		t.Fatalf("norm = %v, want 1", n)
	}
}

func TestEmptyTextIsZeroVector(t *testing.T) {
	e := New()
	v := e.Embed("")
	if vecmath.Norm(v) != 0 {
		t.Fatal("empty text should embed to the zero vector")
	}
	if len(v) != DefaultDim {
		t.Fatalf("dim = %d, want %d", len(v), DefaultDim)
	}
}

func TestRelatedTextsCloserThanUnrelated(t *testing.T) {
	e := New()
	query := "potassium levels in soil samples"
	related := "soil sample chemistry: potassium, phosphorus, nitrogen measurements"
	unrelated := "quarterly revenue projections for the marketing department"
	simRel := e.Similarity(query, related)
	simUnrel := e.Similarity(query, unrelated)
	if simRel <= simUnrel {
		t.Fatalf("related sim %v must exceed unrelated sim %v", simRel, simUnrel)
	}
}

func TestMorphologicalOverlapViaNGrams(t *testing.T) {
	e := New()
	// Shared trigrams should make these closer than random words.
	sim := e.Similarity("tariffs", "tariff")
	other := e.Similarity("tariffs", "budget")
	if sim <= other {
		t.Fatalf("morphological variants %v should beat unrelated %v", sim, other)
	}
}

func TestWithDim(t *testing.T) {
	e := New(WithDim(64))
	if e.Dim() != 64 {
		t.Fatalf("dim = %d", e.Dim())
	}
	if len(e.Embed("x")) != 64 {
		t.Fatal("vector length mismatch")
	}
	// Non-positive dims fall back to the default.
	e = New(WithDim(-1))
	if e.Dim() != DefaultDim {
		t.Fatalf("dim = %d, want default", e.Dim())
	}
}

func TestSimilarityBounded(t *testing.T) {
	e := New(WithNGram(0))
	f := func(a, b string) bool {
		s := float64(e.Similarity(a, b))
		return s >= -1.0001 && s <= 1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSelfSimilarityIsOne(t *testing.T) {
	e := New()
	texts := []string{"potassium ppm", "supplier tariffs germany", "a b c d e"}
	for _, s := range texts {
		if sim := e.Similarity(s, s); math.Abs(float64(sim)-1) > 1e-5 {
			t.Errorf("self sim of %q = %v", s, sim)
		}
	}
}
