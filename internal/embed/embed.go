package embed

import (
	"context"
	"runtime"
	"slices"
	"sync"

	"pneuma/internal/textutil"
	"pneuma/internal/vecmath"
)

// DefaultDim is the embedding dimensionality used across the project. 256
// buckets keeps collisions rare for schema-sized vocabularies while staying
// cheap for HNSW distance evaluations.
const DefaultDim = 256

// The feature set (see the package doc): every token, weighted tokenWt,
// and every distinct byte trigram of every token, weighted ngramWt.
const (
	tokenWt = 1.0
	ngramWt = 0.35
)

// FNV-1a, 64-bit, inlined so no feature string is ever built: hashing
// tokenSeed onward over a token's bytes equals hashing "t:"+token, and
// gramSeed likewise "g:"+gram.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

var (
	tokenSeed = fnv1a(fnvOffset, []byte("t:"))
	gramSeed  = fnv1a(fnvOffset, []byte("g:"))
)

func fnv1a(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// gramSet is how many distinct trigrams of one token are deduplicated on
// the stack; a token with more trigram positions than that uses a map.
const gramSet = 32

// tokenBuf is the stack buffer the walker lowercases tokens into.
const tokenBuf = 64

// Embedder hashes text into DefaultDim-dimensional unit vectors. It holds
// no state, so one value serves any number of goroutines.
type Embedder struct{}

// New constructs an Embedder.
func New() *Embedder { return &Embedder{} }

// Dim returns the embedding dimensionality.
func (e *Embedder) Dim() int { return DefaultDim }

// Embed maps text to a unit vector. The zero vector is returned for text
// with no tokens.
func (e *Embedder) Embed(text string) []float32 {
	v := make([]float32, DefaultDim)
	embedInto((*[DefaultDim]float32)(v), text)
	return v
}

// embedInto adds text's features to the zeroed v and normalizes it.
func embedInto(v *[DefaultDim]float32, text string) {
	var buf [tokenBuf]byte
	w := textutil.Walk(text, buf[:])
	for tok, ok := w.Next(); ok; tok, ok = w.Next() {
		add(v, fnv1a(tokenSeed, tok), tokenWt)
		addTrigrams(v, tok)
	}
	vecmath.Normalize(v[:])
}

// addTrigrams adds each distinct byte trigram of tok, in order of first
// occurrence. A trigram packs into the low 24 bits of a uint32, so the
// set of those already added is a short array scan.
func addTrigrams(v *[DefaultDim]float32, tok []byte) {
	grams := len(tok) - 2
	if grams <= 0 {
		return
	}
	var seen [gramSet]uint32
	var spill map[uint32]struct{}
	if grams > gramSet {
		spill = make(map[uint32]struct{}, grams)
	}
	n := 0
	for i := 0; i < grams; i++ {
		g := uint32(tok[i])<<16 | uint32(tok[i+1])<<8 | uint32(tok[i+2])
		switch {
		case spill != nil:
			if _, dup := spill[g]; dup {
				continue
			}
			spill[g] = struct{}{}
		case slices.Contains(seen[:n], g):
			continue
		default:
			seen[n] = g
			n++
		}
		add(v, fnv1a(gramSeed, tok[i:i+3]), ngramWt)
	}
}

// EmbedBatch embeds texts with a worker pool of the given size (0 or
// negative means GOMAXPROCS). The result is positionally aligned with the
// input and bit-identical to embedding each text sequentially: each worker
// writes only its own output slot, so scheduling order cannot affect the
// vectors. This is the amortized path bulk ingest uses. A canceled ctx
// stops handing texts to the pool: already-started texts finish, un-started
// ones are abandoned, and ctx.Err() is returned.
func (e *Embedder) EmbedBatch(ctx context.Context, texts []string, workers int) ([][]float32, error) {
	out := make([][]float32, len(texts))
	if err := forEachParallel(ctx, len(texts), workers, func(i int) {
		out[i] = e.Embed(texts[i])
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// forEachParallel runs fn(i) for i in [0,n) across a bounded worker pool.
// Indices are handed out through a channel, so work stays balanced even
// when individual items vary widely in cost. Cancellation is checked at
// each hand-off: remaining indices are never dispatched and ctx.Err() is
// returned after in-flight items drain.
func forEachParallel(ctx context.Context, n, workers int, fn func(i int)) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
			// Yield between items so a bulk embed never monopolizes the
			// scheduler against latency-sensitive goroutines (the same
			// reads-first pacing the index writers use); when nothing else
			// is runnable this costs ~100ns per item.
			runtime.Gosched()
		}
		return nil
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
				runtime.Gosched() // reads-first pacing, as in the sequential path
			}
		}()
	}
	done := ctx.Done()
	var err error
dispatch:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-done:
			err = ctx.Err()
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	return err
}

// add puts a feature with hash h into bucket h mod DefaultDim, with a
// deterministic sign. Using the top hash bit for the sign keeps the
// expected dot-product contribution of colliding unrelated features at
// zero.
func add(v *[DefaultDim]float32, h uint64, w float32) {
	if h>>63 == 1 {
		w = -w
	}
	v[h%DefaultDim] += w
}

// Similarity returns the cosine similarity of the embeddings of two texts,
// bit-identical to vecmath.Cosine(e.Embed(a), e.Embed(b)), without
// allocating: both vectors live in stack arrays.
func (e *Embedder) Similarity(a, b string) float32 {
	var va, vb [DefaultDim]float32
	embedInto(&va, a)
	embedInto(&vb, b)
	return vecmath.Cosine(va[:], vb[:])
}
