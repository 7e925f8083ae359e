package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// TestQuickstartFinalAnswer runs the example with stdout captured and pins
// its last line: the conversation is deterministic, so the answer it
// reaches must not move.
func TestQuickstartFinalAnswer(t *testing.T) {
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
	out := strings.TrimRight(<-printed, "\n")

	const want = "Final answer: 5.0203"
	if last := out[strings.LastIndexByte(out, '\n')+1:]; last != want {
		t.Fatalf("last line = %q, want %q; output:\n%s", last, want, out)
	}
}
