package hnsw

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"pneuma/internal/vecmath"
)

func randomUnit(rng *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return vecmath.Normalize(v)
}

func TestEmptyIndex(t *testing.T) {
	ix := New(8, Config{Seed: 1})
	res, err := ix.Search(make([]float32, 8), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("empty index returned %d results", len(res))
	}
	if ix.Len() != 0 {
		t.Fatalf("Len = %d, want 0", ix.Len())
	}
}

func TestDimMismatch(t *testing.T) {
	ix := New(8, Config{Seed: 1})
	if err := addOne(ix, "a", make([]float32, 4)); err == nil {
		t.Fatal("dim mismatch on Add must error")
	}
	_ = addOne(ix, "a", make([]float32, 8))
	if _, err := ix.Search(make([]float32, 4), 1); err == nil {
		t.Fatal("dim mismatch on Search must error")
	}
}

func TestExactNearestOnSmallSet(t *testing.T) {
	ix := New(4, Config{Seed: 7})
	vecs := map[string][]float32{
		"x": {1, 0, 0, 0},
		"y": {0, 1, 0, 0},
		"z": {0, 0, 1, 0},
		"w": {0.9, 0.1, 0, 0},
	}
	for id, v := range vecs {
		if err := addOne(ix, id, vecmath.Normalize(append([]float32(nil), v...))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := ix.Search([]float32{1, 0, 0, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].ID != "x" || res[1].ID != "w" {
		t.Fatalf("nearest = %v, want [x w]", res)
	}
}

func TestRecallAgainstBruteForce(t *testing.T) {
	const (
		n   = 2000
		dim = 32
		k   = 10
	)
	rng := rand.New(rand.NewSource(42))
	ix := New(dim, Config{Seed: 99})
	data := make([][]float32, n)
	for i := 0; i < n; i++ {
		data[i] = randomUnit(rng, dim)
		if err := addOne(ix, fmt.Sprintf("v%d", i), data[i]); err != nil {
			t.Fatal(err)
		}
	}
	totalRecall := 0.0
	const queries = 20
	for q := 0; q < queries; q++ {
		query := randomUnit(rng, dim)
		// Brute force top-k.
		type pair struct {
			id   string
			dist float32
		}
		all := make([]pair, n)
		for i := range data {
			all[i] = pair{fmt.Sprintf("v%d", i), vecmath.SquaredL2(query, data[i])}
		}
		sort.Slice(all, func(i, j int) bool { return all[i].dist < all[j].dist })
		truth := make(map[string]struct{}, k)
		for _, p := range all[:k] {
			truth[p.id] = struct{}{}
		}
		res, err := ix.Search(query, k)
		if err != nil {
			t.Fatal(err)
		}
		hit := 0
		for _, r := range res {
			if _, ok := truth[r.ID]; ok {
				hit++
			}
		}
		totalRecall += float64(hit) / float64(k)
	}
	recall := totalRecall / queries
	if recall < 0.85 {
		t.Fatalf("recall@%d = %.3f, want >= 0.85", k, recall)
	}
}

func TestDeleteHidesResults(t *testing.T) {
	ix := New(4, Config{Seed: 3})
	_ = addOne(ix, "a", []float32{1, 0, 0, 0})
	_ = addOne(ix, "b", []float32{0.99, 0.01, 0, 0})
	if !deleteOne(ix, "a") {
		t.Fatal("delete existing failed")
	}
	if deleteOne(ix, "a") {
		t.Fatal("double delete should be false")
	}
	res, _ := ix.Search([]float32{1, 0, 0, 0}, 2)
	for _, r := range res {
		if r.ID == "a" {
			t.Fatal("deleted id surfaced in results")
		}
	}
	if ix.Len() != 1 {
		t.Fatalf("Len = %d, want 1", ix.Len())
	}
}

func TestReAddReplacesVector(t *testing.T) {
	ix := New(4, Config{Seed: 3})
	_ = addOne(ix, "a", []float32{1, 0, 0, 0})
	_ = addOne(ix, "b", []float32{0, 1, 0, 0})
	// Move "a" to point near b's direction.
	_ = addOne(ix, "a", []float32{0, 0.99, 0.01, 0})
	res, _ := ix.Search([]float32{0, 1, 0, 0}, 2)
	if len(res) != 2 {
		t.Fatalf("results = %v", res)
	}
	ids := map[string]bool{res[0].ID: true, res[1].ID: true}
	if !ids["a"] || !ids["b"] {
		t.Fatalf("want both a and b near y axis, got %v", res)
	}
	if ix.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ix.Len())
	}
}

func TestDeterministicBuild(t *testing.T) {
	build := func() []Result {
		rng := rand.New(rand.NewSource(5))
		ix := New(16, Config{Seed: 11})
		for i := 0; i < 300; i++ {
			_ = addOne(ix, fmt.Sprintf("d%d", i), randomUnit(rng, 16))
		}
		q := randomUnit(rand.New(rand.NewSource(6)), 16)
		res, _ := ix.Search(q, 5)
		return res
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic result sizes %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("non-deterministic results: %v vs %v", a, b)
		}
	}
}

func TestScoresAreDescending(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ix := New(8, Config{Seed: 2})
	for i := 0; i < 100; i++ {
		_ = addOne(ix, fmt.Sprintf("v%d", i), randomUnit(rng, 8))
	}
	res, _ := ix.Search(randomUnit(rng, 8), 10)
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score+1e-6 {
			t.Fatalf("scores not descending: %v", res)
		}
	}
}
