package retriever

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"pneuma/internal/bm25"
	"pneuma/internal/docs"
	"pneuma/internal/hnsw"
	"pneuma/internal/kramabench"
	"pneuma/internal/leakcheck"
	"pneuma/internal/pnerr"
)

// blockingBackend wraps a ShardBackend so one shard's vector search parks
// until released — the instrument for driving a query into the
// "mid-fan-out" window deterministically. Once released it forwards every
// call, so it can stay installed for later searches.
type blockingBackend struct {
	ShardBackend
	enter   sync.Once
	entered chan struct{} // closed when SearchVector is first reached
	release chan struct{} // SearchVector returns once this closes
}

func (b *blockingBackend) SearchVector(q []float32, k int) ([]hnsw.Result, error) {
	b.enter.Do(func() { close(b.entered) })
	<-b.release
	return b.ShardBackend.SearchVector(q, k)
}

func (b *blockingBackend) SearchLexical(q string, k int) []bm25.Result {
	return b.ShardBackend.SearchLexical(q, k)
}

// TestSearchCanceledBeforeStart: an already-canceled context fails fast
// with the typed error, before any shard is consulted.
func TestSearchCanceledBeforeStart(t *testing.T) {
	r := New(WithShards(4))
	if err := r.IndexTables(context.Background(), kramabench.SyntheticSlice(40)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := r.Search(ctx, "synthetic corpus query", 5)
	if !errors.Is(err, pnerr.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v should wrap context.Canceled", err)
	}
}

// TestSearchCanceledMidFanout: cancel while one shard is parked inside its
// backend. Search must return context.Canceled promptly — not wait for the
// stuck shard — and the abandoned goroutines must drain without leaking
// once the shard unblocks.
func TestSearchCanceledMidFanout(t *testing.T) {
	defer leakcheck.Check(t)()

	r := New(WithShards(4))
	if err := r.IndexTables(context.Background(), kramabench.SyntheticSlice(60)); err != nil {
		t.Fatal(err)
	}
	blocked := &blockingBackend{
		ShardBackend: r.shards[0].be,
		entered:      make(chan struct{}),
		release:      make(chan struct{}),
	}
	r.shards[0].be = blocked

	ctx, cancel := context.WithCancel(context.Background())
	type result struct {
		ds  []docs.Document
		err error
	}
	done := make(chan result, 1)
	go func() {
		ds, err := r.Search(ctx, "nitrate water quality", 5)
		done <- result{ds, err}
	}()

	// Wait until the query is genuinely mid-fan-out (shard 0 parked inside
	// its backend), then cancel.
	select {
	case <-blocked.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("shard fan-out never reached the blocking backend")
	}
	cancel()

	select {
	case res := <-done:
		if !errors.Is(res.err, context.Canceled) {
			t.Fatalf("Search returned %v, want context.Canceled in the chain", res.err)
		}
		if !errors.Is(res.err, pnerr.ErrCanceled) {
			t.Fatalf("Search returned %v, want typed ErrCanceled", res.err)
		}
		if res.ds != nil {
			t.Fatalf("canceled Search returned documents: %v", res.ds)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Search did not return promptly after cancellation (blocked on stuck shard)")
	}

	// Unblock the parked shard so its goroutine can drain; leakcheck then
	// proves nothing is left running. The wrapper stays installed: the
	// abandoned goroutine reads shards[0].be without a lock (queryShard is
	// lock-free by design), so swapping the real backend back would race
	// with it, and a released wrapper simply forwards.
	close(blocked.release)

	// The index must remain fully serviceable after an abandoned query.
	ds, err := r.Search(context.Background(), "nitrate water quality", 5)
	if err != nil || len(ds) == 0 {
		t.Fatalf("post-cancel Search = %v, %v", ds, err)
	}
}

// TestIndexDocumentsCanceled: cancellation during bulk ingest surfaces the
// typed error and leaves the retriever consistent for later ingests.
func TestIndexDocumentsCanceled(t *testing.T) {
	defer leakcheck.Check(t)()

	r := New(WithShards(4))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := r.IndexTables(ctx, kramabench.SyntheticSlice(50))
	if !errors.Is(err, pnerr.ErrCanceled) {
		t.Fatalf("ingest err = %v, want ErrCanceled", err)
	}
	// A fresh ingest on the same retriever must succeed.
	if err := r.IndexTables(context.Background(), kramabench.SyntheticSlice(50)); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 50 {
		t.Fatalf("Len = %d after recovery ingest", r.Len())
	}
}

// TestSearchAfterClose: a closed retriever rejects queries with the typed
// ErrClosed rather than touching released backends.
func TestSearchAfterClose(t *testing.T) {
	r := New(WithShards(2))
	if err := r.IndexTables(context.Background(), kramabench.SyntheticSlice(10)); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Search(context.Background(), "anything", 3); !errors.Is(err, pnerr.ErrClosed) {
		t.Fatalf("Search after Close = %v, want ErrClosed", err)
	}
	if err := r.IndexTables(context.Background(), kramabench.SyntheticSlice(5)); !errors.Is(err, pnerr.ErrClosed) {
		t.Fatalf("Index after Close = %v, want ErrClosed", err)
	}
	if err := r.Close(); !errors.Is(err, pnerr.ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
}
