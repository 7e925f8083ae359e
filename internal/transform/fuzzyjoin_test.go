package transform

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"pneuma/internal/table"
	"pneuma/internal/value"
)

// fuzzyJoinSides builds a seeded 200-row left and 50-row right table whose
// keys are company-like names, the right ones respelled: case, punctuation,
// separators and dropped suffixes, so some left rows match, some tie and
// some match nothing.
func fuzzyJoinSides() (left, right *table.Table) {
	rng := rand.New(rand.NewSource(200))
	stems := []string{"acme", "orion", "globex", "initech", "umbrella", "stark", "wayne", "tyrell", "cyberdyne", "soylent"}
	suffixes := []string{"GmbH", "SARL", "Corp", "Ltd", "Inc", ""}
	name := func() string {
		n := fmt.Sprintf("%s %s-%d", stems[rng.Intn(len(stems))], suffixes[rng.Intn(len(suffixes))], rng.Intn(30))
		switch rng.Intn(4) {
		case 0:
			return n + "."
		case 1:
			return fmt.Sprintf("%s_%d", stems[rng.Intn(len(stems))], rng.Intn(30))
		}
		return n
	}
	left = mkTable([]table.Column{{Name: "id", Type: value.KindInt}, {Name: "supplier", Type: value.KindString}})
	for i := 0; i < 200; i++ {
		left.MustAppend(table.Row{value.Int(int64(i)), value.String(name())})
	}
	right = table.New(table.Schema{Name: "vendors", Columns: []table.Column{
		{Name: "name", Type: value.KindString}, {Name: "tier", Type: value.KindInt},
	}})
	for i := 0; i < 50; i++ {
		right.MustAppend(table.Row{value.String(name()), value.Int(int64(i % 4))})
	}
	return left, right
}

// TestFuzzyJoinPinned pins FuzzyJoin's output on a 200×50 join: its row
// count and a hash of its fingerprint, recorded from the implementation that
// normalized each right key once per left row.
func TestFuzzyJoinPinned(t *testing.T) {
	left, right := fuzzyJoinSides()
	out, err := FuzzyJoin{Right: right, LeftKey: "supplier", RightKey: "name"}.Apply(left)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write([]byte(fingerprint(out)))
	if got, want := out.NumRows(), 117; got != want {
		t.Errorf("rows = %d, want %d", got, want)
	}
	if got, want := h.Sum64(), uint64(0xdc1ab5cea1da7bb1); got != want {
		t.Errorf("fingerprint hash = %#x, want %#x", got, want)
	}
}
