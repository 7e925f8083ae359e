package embed

import (
	"context"
	"hash/fnv"
	"runtime"
	"sync"

	"pneuma/internal/textutil"
	"pneuma/internal/vecmath"
)

// DefaultDim is the embedding dimensionality used across the project. 256
// buckets keeps collisions rare for schema-sized vocabularies while staying
// cheap for HNSW distance evaluations.
const DefaultDim = 256

// Embedder hashes text into fixed-dimension unit vectors.
type Embedder struct {
	dim        int
	ngram      int
	tokenWt    float32
	ngramWt    float32
	normalized bool
}

// Option configures an Embedder.
type Option func(*Embedder)

// WithDim sets the vector dimensionality (default DefaultDim).
func WithDim(d int) Option {
	return func(e *Embedder) {
		if d > 0 {
			e.dim = d
		}
	}
}

// WithNGram sets the character n-gram width (default 3; 0 disables n-gram
// features).
func WithNGram(n int) Option {
	return func(e *Embedder) { e.ngram = n }
}

// New constructs an Embedder.
func New(opts ...Option) *Embedder {
	e := &Embedder{
		dim:        DefaultDim,
		ngram:      3,
		tokenWt:    1.0,
		ngramWt:    0.35,
		normalized: true,
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Dim returns the embedding dimensionality.
func (e *Embedder) Dim() int { return e.dim }

// Embed maps text to a unit vector. The zero vector is returned for text
// with no tokens.
func (e *Embedder) Embed(text string) []float32 {
	v := make([]float32, e.dim)
	tokens := textutil.NormalizeTokens(text)
	for _, tok := range tokens {
		e.add(v, "t:"+tok, e.tokenWt)
		if e.ngram > 0 {
			for _, g := range textutil.CharNGrams(tok, e.ngram) {
				e.add(v, "g:"+g, e.ngramWt)
			}
		}
	}
	if e.normalized {
		vecmath.Normalize(v)
	}
	return v
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

// add hashes the feature into a bucket with a deterministic sign. Using a
// second hash bit for the sign keeps the expected dot-product contribution
// of colliding unrelated features at zero.
func (e *Embedder) add(v []float32, feature string, w float32) {
	h := fnv.New64a()
	_, _ = h.Write([]byte(feature))
	sum := h.Sum64()
	bucket := int(sum % uint64(e.dim))
	if (sum>>63)&1 == 1 {
		w = -w
	}
	v[bucket] += w
}

// Similarity is a convenience wrapper returning the cosine similarity of the
// embeddings of two texts.
func (e *Embedder) Similarity(a, b string) float32 {
	return vecmath.Cosine(e.Embed(a), e.Embed(b))
}
