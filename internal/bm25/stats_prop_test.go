package bm25

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The live-ingest design leans on one invariant: Stats updates are
// commutative. Shard writers fold addDoc/removeDoc deltas in whatever
// order their goroutines interleave, and the quiesced corpus statistics
// must still be exactly those of any sequential application of the same
// per-shard operation streams. This file is the property test for that
// invariant: randomized operation streams (adds, replacements, deletes),
// applied concurrently many times and sequentially in two different
// shard orders, must all converge to identical docCount, totalLen and
// per-term document frequencies.

// statsOp is one shard-local mutation in a generated stream.
type statsOp struct {
	id   string
	text string
	del  bool
}

// genStatsOps builds a randomized per-shard operation stream over a small
// shared vocabulary: adds of fresh IDs, occasional re-adds of an existing
// ID (the replacement path, which folds a remove and an add), and deletes
// of previously added IDs. Deletes and replacements always follow their
// add within the same shard's stream, mirroring the retriever's
// shard-affine writes.
func genStatsOps(rng *rand.Rand, shard, n int) []statsOp {
	vocab := []string{
		"river", "nitrate", "station", "turbine", "freight", "manifest",
		"rainfall", "sensor", "basin", "portfolio", "yield", "potassium",
	}
	text := func() string {
		words := make([]byte, 0, 64)
		for i, k := 0, 2+rng.Intn(7); i < k; i++ {
			if len(words) > 0 {
				words = append(words, ' ')
			}
			words = append(words, vocab[rng.Intn(len(vocab))]...)
		}
		return string(words)
	}
	ops := make([]statsOp, 0, n)
	var live []string
	next := 0
	for len(ops) < n {
		switch {
		case len(live) > 4 && rng.Intn(4) == 0:
			k := rng.Intn(len(live))
			ops = append(ops, statsOp{id: live[k], del: true})
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		case len(live) > 2 && rng.Intn(5) == 0:
			// Replacement: re-add a live ID with different text.
			ops = append(ops, statsOp{id: live[rng.Intn(len(live))], text: text()})
		default:
			id := fmt.Sprintf("s%d-doc%d", shard, next)
			next++
			ops = append(ops, statsOp{id: id, text: text()})
			live = append(live, id)
		}
	}
	return ops
}

// applyStatsOps plays one shard's stream into its index (all indexes
// share one Stats object).
func applyStatsOps(ix *Index, ops []statsOp, yield *rand.Rand) {
	for _, o := range ops {
		if o.del {
			deleteOne(ix, o.id)
		} else {
			addOne(ix, o.id, o.text)
		}
		if yield != nil && yield.Intn(3) == 0 {
			runtime.Gosched()
		}
	}
}

// statsFingerprint reduces a Stats object to a comparable string:
// docCount, totalLen and the full per-term document-frequency map in
// sorted term order. It reads the raw fields (same package) so the
// comparison covers every stemmed term actually folded in, then
// cross-checks the batched QueryStats snapshot the query path uses
// against the raw values.
func statsFingerprint(t *testing.T, s *Stats) string {
	t.Helper()
	s.mu.RLock()
	terms := make([]string, 0, len(s.df))
	for term := range s.df {
		terms = append(terms, term)
	}
	sort.Strings(terms)
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d len=%d", s.docCount, s.totalLen)
	for _, term := range terms {
		fmt.Fprintf(&b, " %s=%d", term, s.df[term])
	}
	s.mu.RUnlock()

	df := make([]int32, len(terms))
	n, avg := s.QueryStats(terms, df)
	for i, term := range terms {
		if int(df[i]) != s.DocFreq(term) {
			t.Fatalf("QueryStats df[%q] = %d, DocFreq = %d", term, df[i], s.DocFreq(term))
		}
	}
	if n != s.DocCount() || avg != s.AvgDocLen() {
		t.Fatalf("QueryStats (%d, %v) disagrees with (%d, %v)", n, avg, s.DocCount(), s.AvgDocLen())
	}
	return b.String()
}

// TestStatsCommutativity is the property test: for randomized per-shard
// operation streams, every concurrent interleaving of the shard writers
// and every sequential shard order must fold to identical corpus
// statistics.
func TestStatsCommutativity(t *testing.T) {
	const shards = 8
	opsPerShard := 120
	trials := 12
	if testing.Short() {
		opsPerShard = 60
		trials = 6
	}
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			streams := make([][]statsOp, shards)
			for s := range streams {
				streams[s] = genStatsOps(rng, s, opsPerShard)
			}

			// Sequential baseline, shards in order 0..7.
			want := NewStats()
			for s := 0; s < shards; s++ {
				applyStatsOps(NewWithStats(Params{}, want), streams[s], nil)
			}
			wantFP := statsFingerprint(t, want)

			// Same streams, shards folded in reverse order: commutativity
			// across whole streams.
			rev := NewStats()
			for s := shards - 1; s >= 0; s-- {
				applyStatsOps(NewWithStats(Params{}, rev), streams[s], nil)
			}
			if got := statsFingerprint(t, rev); got != wantFP {
				t.Fatalf("reverse shard order diverged:\n got %s\nwant %s", got, wantFP)
			}

			// Concurrent trials: shard goroutines interleave op by op
			// (Gosched calls shake the schedule), and every trial must
			// converge to the sequential fingerprint.
			for trial := 0; trial < trials; trial++ {
				st := NewStats()
				var wg sync.WaitGroup
				for s := 0; s < shards; s++ {
					wg.Add(1)
					go func(s int) {
						defer wg.Done()
						yield := rand.New(rand.NewSource(seed*1000 + int64(trial*shards+s)))
						applyStatsOps(NewWithStats(Params{}, st), streams[s], yield)
					}(s)
				}
				wg.Wait()
				if got := statsFingerprint(t, st); got != wantFP {
					t.Fatalf("trial %d diverged:\n got %s\nwant %s", trial, got, wantFP)
				}
			}
		})
	}
}
