package main

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"
)

// TestPaperGolden regenerates the full paper output (Tables 1–3, Figures 4–5,
// the O3 result and the latency trade-off) and compares it byte for byte
// with testdata/paper.golden. The evaluation is deterministic, so any
// difference is a change to what the reproduction reports.
func TestPaperGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/paper.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(context.Background(), &got, 0, 0, false); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("output differs from testdata/paper.golden from line %d:\n got: %q\nwant: %q\n"+
				"(after an intended change: go run ./cmd/pneuma-bench > cmd/pneuma-bench/testdata/paper.golden)", i+1, g, w)
		}
	}
}
