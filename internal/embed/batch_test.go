package embed

import (
	"context"
	"fmt"
	"testing"
)

// TestEmbedBatchMatchesSequential asserts the worker-pool path is
// bit-identical to sequential embedding for every worker count, including
// worker counts exceeding the batch size, and that an empty batch is an
// empty result.
func TestEmbedBatchMatchesSequential(t *testing.T) {
	e := New()
	if got, err := e.EmbedBatch(context.Background(), nil, 0); err != nil || len(got) != 0 {
		t.Fatalf("EmbedBatch(nil) = %v, %v", got, err)
	}
	texts := make([]string, 37)
	for i := range texts {
		texts[i] = fmt.Sprintf("synthetic document %d about tariffs and potassium measure %d", i, i*i)
	}
	want := make([][]float32, len(texts))
	for i, s := range texts {
		want[i] = e.Embed(s)
	}
	for _, workers := range []int{0, 1, 2, 4, 64} {
		got, err := e.EmbedBatch(context.Background(), texts, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: len = %d", workers, len(got))
		}
		for i := range got {
			for d := range got[i] {
				if got[i][d] != want[i][d] {
					t.Fatalf("workers=%d: vector %d dim %d diverged", workers, i, d)
				}
			}
		}
	}
}

// TestEmbedBatchCanceled: a canceled context stops dispatch and returns
// ctx.Err() instead of a partial result.
func TestEmbedBatchCanceled(t *testing.T) {
	e := New()
	texts := make([]string, 100)
	for i := range texts {
		texts[i] = fmt.Sprintf("document %d", i)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.EmbedBatch(ctx, texts, 4); err == nil {
		t.Fatal("EmbedBatch with canceled ctx returned no error")
	}
	// Sequential path (workers=1) honors cancellation too.
	if _, err := e.EmbedBatch(ctx, texts, 1); err == nil {
		t.Fatal("sequential EmbedBatch with canceled ctx returned no error")
	}
}
