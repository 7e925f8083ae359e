package hnsw

import (
	"math"

	"pneuma/internal/vecmath"
)

// rescoreFactor is the exact-rescore over-fetch multiplier of Search: the
// int8 beam's top k·rescoreFactor candidates are rescored with float32
// math before the top k are returned.
const rescoreFactor = 4

// Scalar quantization scheme. Every vector is stored (alongside its exact
// float32 form) as dim int8 codes plus three per-vector constants:
//
//	v[i] ≈ off + scale·q[i],  q[i] ∈ [-127, 127]
//
// with off = (min+max)/2 and scale = (max-min)/254, the affine map that
// spreads the vector's own value range across the full int8 range. The
// dot product of two quantized vectors then expands to
//
//	dot(a,b) ≈ sa·sb·Σqa·qb + sa·oa'…  (see graph.qdist)
//
// where the only O(dim) term, Σ qa[i]·qb[i], is the int32 DotInt8 kernel;
// Σ q[i] is precomputed per vector at insert time. Squared L2 distance is
// derived from the approximate dot and the exact stored norms, so only
// the cross term is approximated.

// quantizeVec fills dst (len == len(v)) with the int8 codes of v and
// returns the per-vector constants. A constant vector (max == min) gets
// scale 0 and all-zero codes, which reconstructs exactly as off.
// Rounding goes through float64 math.Round, so codes are deterministic
// across platforms.
func quantizeVec(dst []int8, v []float32) (scale, off float32, sum int32) {
	if len(v) == 0 {
		return 0, 0, 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	off = (lo + hi) / 2
	scale = (hi - lo) / 254
	if scale == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return 0, off, 0
	}
	inv := 1 / float64(scale)
	for i, x := range v {
		q := math.Round(float64(x-off) * inv)
		if q > 127 {
			q = 127
		} else if q < -127 {
			q = -127
		}
		dst[i] = int8(q)
		sum += int32(q)
	}
	return scale, off, sum
}

// appendQuantized quantizes the newest arena slot of the draft (which must
// already hold vec) into the int8 arenas, keeping them slot-parallel with
// the float32 arena. Writer-batch only: the appends grow the draft's
// arenas past the published length, which readers never touch.
func appendQuantized(g *graph, vec []float32) {
	n := len(g.qvecs)
	g.qvecs = append(g.qvecs, make([]int8, g.dim)...)
	scale, off, sum := quantizeVec(g.qvecs[n:n+g.dim], vec)
	g.qscale = append(g.qscale, scale)
	g.qoff = append(g.qoff, off)
	g.qsum = append(g.qsum, sum)
}

// requantize rebuilds the int8 arenas of a not-yet-published draft from
// its float32 arena — LoadSnapshot's path, since snapshots carry only the
// float32 state. quantizeVec is deterministic, so the codes equal the ones
// the inserts produced. Tombstoned slots are quantized too: traversal
// routes through them.
func requantize(g *graph) {
	n := len(g.ids)
	g.qvecs = make([]int8, n*g.dim)
	g.qscale = make([]float32, n)
	g.qoff = make([]float32, n)
	g.qsum = make([]int32, n)
	for i := 0; i < n; i++ {
		g.qscale[i], g.qoff[i], g.qsum[i] = quantizeVec(g.qvecs[i*g.dim:(i+1)*g.dim], g.vecAt(i))
	}
}

// qvecAt returns slot i's int8 codes.
func (g *graph) qvecAt(i int) []int8 {
	return g.qvecs[i*g.dim : (i+1)*g.dim]
}

// ArenaBytes reports the byte sizes of the float32 vector arena and of the
// complete quantized side (codes plus per-vector constants). Exposed for
// the bench harness's memory accounting.
func (ix *Index) ArenaBytes() (float32Bytes, int8Bytes int) {
	g := ix.view.Load()
	f := len(g.vecs) * 4
	q := len(g.qvecs) + (len(g.qscale)+len(g.qoff)+len(g.qsum))*4
	return f, q
}

// qquery is the per-search quantized form of the query vector, carrying
// the query-constant factors of the distance expansion pre-folded (cDot,
// cOff, cSum, norm2) so the per-candidate cost is the int8 dot plus five
// multiply-adds. vec aliases the search scratch.
type qquery struct {
	vec   []int8
	scale float32
	off   float32
	sum   int32
	norm  float32 // exact float32 norm of the original query
	norm2 float32 // norm·norm
	cDot  float32 // 2·scale — coefficient of qscale[i]·dotInt8
	cOff  float32 // 2·(scale·sum + dim·off) — coefficient of qoff[i]
	cSum  float32 // 2·off — coefficient of qscale[i]·qsum[i]
}

// quantizeQuery quantizes the query once into the scratch buffer; every
// candidate scored during this search reuses the codes and the folded
// coefficients.
func (s *searchScratch) quantizeQuery(query []float32) qquery {
	if cap(s.qvec) < len(query) {
		s.qvec = make([]int8, len(query))
	}
	s.qvec = s.qvec[:len(query)]
	var q qquery
	q.vec = s.qvec
	q.scale, q.off, q.sum = quantizeVec(q.vec, query)
	q.norm = vecmath.Norm(query)
	q.norm2 = q.norm * q.norm
	q.cDot = 2 * q.scale
	q.cOff = 2 * (q.scale*float32(q.sum) + float32(len(query))*q.off)
	q.cSum = 2 * q.off
	return q
}

// qdist returns the approximate squared L2 distance between the quantized
// query and slot i: ‖q‖² + ‖v‖² − 2·dot(q,v), with the exact stored norms
// and the cross term expanded over the quantized forms — the
// query-constant factors live pre-folded in q. The float32 combination
// has a fixed evaluation order, so distances are deterministic run to
// run.
func (g *graph) qdist(q *qquery, i int) float32 {
	return g.qdistWith(q, i, vecmath.DotInt8(q.vec, g.qvecAt(i)))
}

// qdistWith is qdist with the int8 dot product already in hand — the
// shared tail of the single and batched scoring paths. The float32
// combination has a fixed evaluation order, so a batched caller gets the
// exact distance qdist would compute (DotInt8Batch is bit-identical to
// DotInt8 by the integer-exactness argument on the kernel).
func (g *graph) qdistWith(q *qquery, i int, qd int32) float32 {
	sc := g.qscale[i]
	cross := q.cDot*sc*float32(qd) + q.cOff*g.qoff[i] + q.cSum*sc*float32(g.qsum[i])
	n := g.norms[i]
	return q.norm2 + n*n - cross
}

// greedyClosestQ is greedyClosest on the int8 arena: each hop scores the
// whole adjacency list with one DotInt8Batch call, then folds the
// per-candidate constants in list order.
func (g *graph) greedyClosestQ(s *searchScratch, q *qquery, ep, lvl int) int {
	cur := ep
	curDist := g.qdist(q, cur)
	for {
		improved := false
		nbs := g.links[cur]
		if lvl < len(nbs) && len(nbs[lvl]) > 0 {
			adj := nbs[lvl]
			qds := s.qdotBuf(len(adj))
			vecmath.DotInt8Batch(q.vec, g.qvecs, g.dim, adj, qds)
			for j, nb := range adj {
				if d := g.qdistWith(q, int(nb), qds[j]); d < curDist {
					cur, curDist = int(nb), d
					improved = true
				}
			}
		}
		if !improved {
			return cur
		}
	}
}

// searchLayerQ is searchLayer (Algorithm 2) on the int8 arena: the query's
// walk, where searchLayer is construction's. The body is duplicated rather
// than parameterized by a distance closure so the hot loop stays free of
// indirect calls and allocations. Neighbor expansion is batched exactly
// like searchLayer's: collect the unvisited candidate block, one
// DotInt8Batch call, then push in list order.
func (g *graph) searchLayerQ(s *searchScratch, q *qquery, ep, ef, lvl int) []cand {
	s.begin(len(g.ids))
	s.visited[ep] = s.epoch
	epDist := g.qdist(q, ep)
	s.cands.push(cand{int32(ep), epDist})
	s.results.push(cand{int32(ep), epDist})

	for s.cands.len() > 0 {
		c := s.cands.pop()
		if s.results.len() >= ef && c.dist > s.results.top().dist {
			break
		}
		nbs := g.links[c.idx]
		if lvl < len(nbs) {
			batch := s.batch[:0]
			for _, nb := range nbs[lvl] {
				if s.visited[nb] == s.epoch {
					continue
				}
				s.visited[nb] = s.epoch
				batch = append(batch, nb)
			}
			s.batch = batch
			if len(batch) == 0 {
				continue
			}
			qds := s.qdotBuf(len(batch))
			vecmath.DotInt8Batch(q.vec, g.qvecs, g.dim, batch, qds)
			for j, nb := range batch {
				d := g.qdistWith(q, int(nb), qds[j])
				if s.results.len() < ef || d < s.results.top().dist {
					s.cands.push(cand{nb, d})
					s.results.push(cand{nb, d})
					if s.results.len() > ef {
						s.results.pop()
					}
				}
			}
		}
	}
	n := s.results.len()
	if cap(s.out) < n {
		s.out = make([]cand, n)
	}
	out := s.out[:n]
	for i := n - 1; i >= 0; i-- {
		out[i] = s.results.pop()
	}
	return out
}

// sortRescored orders rescored candidates ascending by negated exact
// score with external-ID ties ascending, making the result order a pure
// function of the exact scores. Insertion sort: the set is
// k·rescoreFactor entries, already near-ordered by the beam.
func (g *graph) sortRescored(cs []cand) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && g.rescLess(cs[j], cs[j-1]); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

func (g *graph) rescLess(a, b cand) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return g.ids[a.idx] < g.ids[b.idx]
}
