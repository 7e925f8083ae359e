package main

import (
	"io"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestTariffAnswer runs the example with stdout captured and pins the answer
// row it computes and the one knowledge note the clarification leaves: the
// run is deterministic, and it is the only end-to-end caller of Web Search
// and the knowledge store.
func TestTariffAnswer(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	printed := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- string(b)
	}()

	main()
	os.Stdout = stdout
	w.Close()
	out := <-printed

	lines := strings.Split(out, "\n")
	for _, want := range []string{"| 2753.823465246957 |", "Knowledge notes captured: 1"} {
		if !slices.Contains(lines, want) {
			t.Errorf("no line %q; output:\n%s", want, out)
		}
	}
}
