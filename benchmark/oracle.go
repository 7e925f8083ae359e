package main

import (
	"math"
	"sort"

	"pneuma/internal/docs"
	"pneuma/internal/embed"
	"pneuma/internal/table"
	"pneuma/internal/textutil"
)

// oracle answers a table query exactly: a brute-force cosine scan over
// every document vector, an exhaustive BM25 over every document, and
// reciprocal-rank fusion of the two rankings. It shares the repo's
// tokenizer, embedder and canonical table document (the definition of the
// problem) and nothing of the sharded, graph-based path that solves it.
type oracle struct {
	emb *embed.Embedder
	dim int

	ids      []string
	vecs     []float32 // len(ids) × dim
	norms    []float64
	length   []int
	postings map[string][]posting // every document holding the term
	avgLen   float64
	scores   []float64 // BM25 accumulator, one per document
}

type posting struct{ doc, tf int }

// The constants of the served ranking: BM25 defaults of bm25.Params, the
// RRF constant of retriever and ir, and the retriever's per-side candidate
// budget for a request of k results.
const (
	oracleK1   = 1.2
	oracleB    = 0.75
	oracleRRFK = 60.0
)

func oracleFetch(k int) int { return max(3*k, 10) }

type ranked struct {
	doc   int
	score float64
}

func newOracle(tables []*table.Table) *oracle {
	emb := embed.New()
	o := &oracle{emb: emb, dim: emb.Dim(), postings: map[string][]posting{}}
	total := 0
	for d, t := range tables {
		doc := docs.TableDocument(t)
		v := emb.Embed(doc.Content)
		o.ids = append(o.ids, doc.ID)
		o.vecs = append(o.vecs, v...)
		o.norms = append(o.norms, norm(v))
		toks := textutil.NormalizeTokens(doc.Content)
		tf := map[string]int{}
		for _, tok := range toks {
			tf[tok]++
		}
		for term, f := range tf {
			o.postings[term] = append(o.postings[term], posting{d, f})
		}
		o.length = append(o.length, len(toks))
		total += len(toks)
	}
	o.avgLen = 1
	if total > 0 {
		o.avgLen = float64(total) / float64(len(tables))
	}
	o.scores = make([]float64, len(tables))
	return o
}

func norm(v []float32) float64 {
	var s float64
	for _, x := range v {
		s += float64(x) * float64(x)
	}
	return math.Sqrt(s)
}

// before is the ranking order: score descending, ID ascending.
func (o *oracle) before(a, b ranked) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return o.ids[a.doc] < o.ids[b.doc]
}

// keep inserts r into best, the first n of everything seen so far in
// ranking order.
func (o *oracle) keep(best []ranked, n int, r ranked) []ranked {
	if len(best) == n && !o.before(r, best[n-1]) {
		return best
	}
	at := sort.Search(len(best), func(i int) bool { return o.before(r, best[i]) })
	if len(best) < n {
		best = append(best, ranked{})
	}
	copy(best[at+1:], best[at:])
	best[at] = r
	return best
}

// byCosine scans every document vector.
func (o *oracle) byCosine(query string, n int) []ranked {
	q := o.emb.Embed(query)
	qn := norm(q)
	var best []ranked
	for d := range o.ids {
		v := o.vecs[d*o.dim : (d+1)*o.dim]
		var dot float64
		for i, x := range q {
			dot += float64(x) * float64(v[i])
		}
		score := 0.0
		if qn > 0 && o.norms[d] > 0 {
			score = dot / (qn * o.norms[d])
		}
		best = o.keep(best, n, ranked{d, score})
	}
	return best
}

// byBM25 scores every document that shares a term with the query, terms in
// sorted order so a document's sum has one float result.
func (o *oracle) byBM25(query string, n int) []ranked {
	qtf := map[string]int{}
	for _, tok := range textutil.NormalizeTokens(query) {
		qtf[tok]++
	}
	terms := make([]string, 0, len(qtf))
	for term := range qtf {
		terms = append(terms, term)
	}
	sort.Strings(terms)
	docsN := float64(len(o.ids))
	var touched []int
	for _, term := range terms {
		list := o.postings[term]
		df := float64(len(list))
		idf := math.Log(1 + (docsN-df+0.5)/(df+0.5))
		for _, p := range list {
			if o.scores[p.doc] == 0 {
				touched = append(touched, p.doc)
			}
			f := float64(p.tf)
			lengthNorm := oracleK1 * (1 - oracleB + oracleB*float64(o.length[p.doc])/o.avgLen)
			o.scores[p.doc] += float64(qtf[term]) * idf * (f * (oracleK1 + 1)) / (f + lengthNorm)
		}
	}
	var best []ranked
	for _, d := range touched {
		best = o.keep(best, n, ranked{d, o.scores[d]})
		o.scores[d] = 0
	}
	return best
}

// top returns the IDs of the exact top-k for query.
func (o *oracle) top(query string, k int) []string {
	fused := map[int]float64{}
	for _, list := range [][]ranked{o.byCosine(query, oracleFetch(k)), o.byBM25(query, oracleFetch(k))} {
		for rank, r := range list {
			fused[r.doc] += 1 / (oracleRRFK + float64(rank+1))
		}
	}
	var best []ranked
	for d, s := range fused {
		best = o.keep(best, k, ranked{d, s})
	}
	out := make([]string, len(best))
	for i, r := range best {
		out[i] = o.ids[r.doc]
	}
	return out
}

// recall is the share of want that got contains.
func recall(got, want []string) float64 {
	if len(want) == 0 {
		return 1
	}
	have := make(map[string]bool, len(got))
	for _, id := range got {
		have[id] = true
	}
	n := 0
	for _, id := range want {
		if have[id] {
			n++
		}
	}
	return float64(n) / float64(len(want))
}
