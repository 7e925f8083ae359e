package retriever

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pneuma/internal/docs"
	"pneuma/internal/leakcheck"
)

// The churn soak: a single mutator streams adds, deletes and flushes into
// a retriever while reader goroutines hammer Search, Document and Len —
// the live-ingest serving pattern the epoch/RCU read path exists for. The
// mutator records the exact operation sequence it applied; after the
// index quiesces, replaying that sequence into a fresh memory-backed
// retriever must reproduce every search result exactly (IDs and scores),
// at every shard count, on both backends, and across a close/reopen. Run
// under -race this doubles as the data-race proof
// for the lock-free read path.

// churnOp is one recorded mutation: an add batch or a delete batch,
// exactly as handed to the batch APIs.
type churnOp struct {
	add []docs.Document
	del []string
}

// churnVocab gives the synthetic corpus vocabulary overlap so BM25 terms
// appear in many documents and deletes move document frequencies.
var churnVocab = []string{
	"river", "nitrate", "station", "turbine", "freight", "manifest",
	"rainfall", "sensor", "basin", "portfolio", "yield", "potassium",
	"warehouse", "stock", "quality", "sample",
}

// churnDoc builds the nth synthetic document.
func churnDoc(n int) docs.Document {
	a := churnVocab[n%len(churnVocab)]
	b := churnVocab[(n/3+5)%len(churnVocab)]
	c := churnVocab[(n/7+11)%len(churnVocab)]
	return docs.Document{
		ID:      fmt.Sprintf("doc-%05d", n),
		Kind:    docs.KindKnowledge,
		Title:   fmt.Sprintf("churn %d", n),
		Content: fmt.Sprintf("%s %s readings series %d with %s measurements", a, b, n, c),
	}
}

// churnQueries is the fixed query set parity is asserted over.
var churnQueries = []string{
	"river nitrate readings",
	"freight manifest series",
	"turbine yield measurements",
	"warehouse stock sample",
	"rainfall sensor basin quality",
}

// assertChurnParity requires two retrievers to answer the churn query set
// identically — same documents, same order, same scores.
func assertChurnParity(t *testing.T, want, got *Retriever, label string) {
	t.Helper()
	ctx := context.Background()
	for _, q := range churnQueries {
		a, err := want.Search(ctx, q, 10)
		if err != nil {
			t.Fatalf("%s: want search: %v", label, err)
		}
		b, err := got.Search(ctx, q, 10)
		if err != nil {
			t.Fatalf("%s: got search: %v", label, err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: query %q: %d vs %d results", label, q, len(a), len(b))
		}
		for i := range a {
			if a[i].ID != b[i].ID || a[i].Score != b[i].Score {
				t.Fatalf("%s: query %q rank %d: (%s, %v) vs (%s, %v)",
					label, q, i, a[i].ID, a[i].Score, b[i].ID, b[i].Score)
			}
		}
	}
}

// runChurn drives the concurrent soak against r and returns the recorded
// mutation sequence (seeded corpus first). ops scales the soak length.
func runChurn(t *testing.T, r *Retriever, ops int) []churnOp {
	t.Helper()
	ctx := context.Background()

	// Seed corpus, recorded as the first op so replay rebuilds it the same
	// way.
	seed := make([]docs.Document, 80)
	for i := range seed {
		seed[i] = churnDoc(i)
	}
	if err := r.IndexDocuments(ctx, seed); err != nil {
		t.Fatal(err)
	}
	recorded := []churnOp{{add: seed}}

	done := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				switch i % 3 {
				case 0:
					q := churnQueries[rng.Intn(len(churnQueries))]
					res, err := r.Search(ctx, q, 5)
					if err != nil {
						t.Errorf("reader %d: search: %v", g, err)
						return
					}
					for _, d := range res {
						if d.ID == "" {
							t.Errorf("reader %d: empty result ID", g)
							return
						}
					}
				case 1:
					r.Document(fmt.Sprintf("doc-%05d", rng.Intn(200)))
				case 2:
					if r.Len() < 0 {
						t.Errorf("reader %d: negative Len", g)
						return
					}
				}
			}
		}(g)
	}

	// Single mutator: batched adds, batched deletes and flushes in a
	// recorded order. IDs only ever move forward (no replacements), so a
	// compacted index is exactly a fresh build over the survivors.
	rng := rand.New(rand.NewSource(20260808))
	next := len(seed)
	live := make([]string, 0, len(seed)+ops)
	for _, d := range seed {
		live = append(live, d.ID)
	}
	for i := 0; i < ops; i++ {
		switch {
		case rng.Intn(10) == 0:
			if err := r.Flush(); err != nil {
				t.Fatalf("mutator: flush: %v", err)
			}
		case rng.Intn(3) == 0 && len(live) > 20:
			n := 1 + rng.Intn(4)
			del := make([]string, 0, n)
			for j := 0; j < n; j++ {
				k := rng.Intn(len(live))
				del = append(del, live[k])
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if got := r.DeleteDocuments(del); got != len(del) {
				t.Fatalf("mutator: deleted %d of %d", got, len(del))
			}
			recorded = append(recorded, churnOp{del: del})
		default:
			n := 1 + rng.Intn(6)
			add := make([]docs.Document, n)
			for j := range add {
				add[j] = churnDoc(next)
				live = append(live, add[j].ID)
				next++
			}
			if err := r.IndexDocuments(ctx, add); err != nil {
				t.Fatalf("mutator: index: %v", err)
			}
			recorded = append(recorded, churnOp{add: add})
		}
	}
	close(done)
	readers.Wait()
	return recorded
}

// replayChurn applies the recorded sequence, batch for batch, to a fresh
// retriever.
func replayChurn(t *testing.T, r *Retriever, recorded []churnOp) {
	t.Helper()
	ctx := context.Background()
	for _, op := range recorded {
		if len(op.add) > 0 {
			if err := r.IndexDocuments(ctx, op.add); err != nil {
				t.Fatal(err)
			}
		}
		if len(op.del) > 0 {
			if got := r.DeleteDocuments(op.del); got != len(op.del) {
				t.Fatalf("replay deleted %d of %d", got, len(op.del))
			}
		}
	}
}

// TestChurnSoak runs the soak across the shard-count × backend matrix and
// asserts quiesced parity with a sequential replay; disk configurations
// additionally close and reopen, asserting the restored index (snapshot
// bulk load or segment replay) still answers identically. Short mode (the race-smoke gate) trims the matrix to one
// shard count per backend.
func TestChurnSoak(t *testing.T) {
	shardCounts := []int{1, 4, 8}
	ops := 150
	if testing.Short() {
		shardCounts = []int{4}
		ops = 60
	}
	for _, shards := range shardCounts {
		for _, backend := range []Backend{Memory, Disk} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, backend), func(t *testing.T) {
				defer leakcheck.Check(t)()
				opts := []Option{WithShards(shards), WithBackend(backend)}
				var dir string
				if backend == Disk {
					dir = t.TempDir()
					// A byte-based sync policy keeps the group-commit
					// flusher live for the whole soak. Ratio-triggered
					// compaction is disabled: it rebuilds the graph without
					// its tombstones, which is correct but would diverge
					// from the tombstoned sequential replay below — the
					// dedicated compaction-parity test covers that path.
					opts = append(opts, WithDir(dir), WithSyncBytes(1<<14),
						withCompactRatio(compactionOff))
				}
				r, err := Open(opts...)
				if err != nil {
					t.Fatal(err)
				}
				recorded := runChurn(t, r, ops)

				// Parity: a fresh memory-backed retriever fed the same
				// sequence must answer every query identically — the
				// concurrent interleaving observed by readers collapsed to
				// exactly the sequential history at quiesce.
				fresh := New(WithShards(shards))
				defer fresh.Close()
				replayChurn(t, fresh, recorded)
				if fresh.Len() != r.Len() {
					t.Fatalf("replay Len = %d, churned Len = %d", fresh.Len(), r.Len())
				}
				assertChurnParity(t, fresh, r, "quiesced")

				if backend != Disk {
					if err := r.Close(); err != nil {
						t.Fatal(err)
					}
					return
				}
				// Disk: the restored index — snapshot bulk load — must
				// preserve the same answers.
				if err := r.Close(); err != nil {
					t.Fatal(err)
				}
				re, err := Open(WithShards(shards), WithBackend(Disk), WithDir(dir))
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				if re.Len() != fresh.Len() {
					t.Fatalf("reopen: Len = %d, want %d", re.Len(), fresh.Len())
				}
				assertChurnParity(t, fresh, re, "reopen")
				if err := re.Close(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestChurnCompactionParity pins the fresh-build contract: after deletes
// and a compaction-triggering Flush, a disk-backed index answers exactly
// like a brand-new index built over only the surviving documents in their
// original insertion order — tombstones leave no trace in results.
func TestChurnCompactionParity(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(WithShards(4), WithBackend(Disk), WithDir(dir), withCompactRatio(0.01))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()

	all := make([]docs.Document, 120)
	for i := range all {
		all[i] = churnDoc(i)
	}
	if err := r.IndexDocuments(ctx, all); err != nil {
		t.Fatal(err)
	}
	var deleted []string
	for i := 0; i < len(all); i += 3 {
		deleted = append(deleted, all[i].ID)
	}
	if got := r.DeleteDocuments(deleted); got != len(deleted) {
		t.Fatalf("deleted %d of %d", got, len(deleted))
	}
	// Every shard now exceeds the 1% dead fraction; Flush rewrites the
	// segments and rebuilds the in-memory graphs from the survivors.
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}

	survivors := make([]docs.Document, 0, len(all))
	for i, d := range all {
		if i%3 != 0 {
			survivors = append(survivors, d)
		}
	}
	fresh := New(WithShards(4))
	defer fresh.Close()
	if err := fresh.IndexDocuments(ctx, survivors); err != nil {
		t.Fatal(err)
	}
	assertChurnParity(t, fresh, r, "compacted")
}
