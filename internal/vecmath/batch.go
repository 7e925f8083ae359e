package vecmath

// Batched arena kernels. Each scores one query against len(idxs)
// candidate vectors resident in a contiguous arena: candidate j is the
// window arena[idxs[j]*stride : idxs[j]*stride+len(q)], and its score
// lands in out[j]. stride is in elements and must be ≥ len(q) (equal for
// a packed arena; larger when rows carry padding). The layout is exactly
// the struct-of-arrays arena the HNSW index stores, so traversal can hand
// an adjacency list straight to the kernel.
//
// Results are bit-identical to len(idxs) single-kernel calls at every
// length and on every tier: the SIMD batch kernels run the same canonical
// 8-lane accumulation per candidate as their single-call forms and only
// amortize what sits around the inner loop — the dispatch load, the
// call/spill overhead, and (on amd64) a software prefetch of the next
// candidate's first cache lines issued while the current one is scored.
//
// All three panic on a malformed batch (short out, stride below the
// query length, or an index whose window leaves the arena) — like Dot's
// dimension-mismatch panic, those are programming errors, and the check
// is what lets the assembly kernels run raw loads safely.

// DotBatch writes the dot product of q with each indexed candidate into
// out[0:len(idxs)].
func DotBatch(q, arena []float32, stride int, idxs []int32, out []float32) {
	runBatch(kernels.dotBatch, q, arena, stride, idxs, out)
}

// SquaredL2Batch writes the squared Euclidean distance between q and each
// indexed candidate into out[0:len(idxs)].
func SquaredL2Batch(q, arena []float32, stride int, idxs []int32, out []float32) {
	runBatch(kernels.sqL2Batch, q, arena, stride, idxs, out)
}

// DotInt8Batch writes the int32-accumulated dot product of q with each
// indexed int8 candidate into out[0:len(idxs)]. It is the batched form of
// DotInt8 and shares its exactness argument: integer arithmetic never
// rounds, so every tier returns identical values.
func DotInt8Batch(q, arena []int8, stride int, idxs []int32, out []int32) {
	runBatch(kernels.dotInt8Batch, q, arena, stride, idxs, out)
}

// runBatch is the body every batch entry point shares: validate the
// shape, settle the empty cases (no candidates; a zero-length query scores
// 0), and hand the rest to kern. The differential tests call it with each
// tier's kernel in turn.
func runBatch[T float32 | int8, O float32 | int32](kern func(q, arena []T, stride int, idxs []int32, out []O), q, arena []T, stride int, idxs []int32, out []O) {
	checkBatch(len(q), len(arena), stride, idxs, len(out))
	if len(idxs) == 0 {
		return
	}
	if len(q) == 0 {
		clear(out[:len(idxs)])
		return
	}
	kern(q, arena, stride, idxs, out[:len(idxs)])
}

// checkBatch validates a batch call's shape up front: every violation is
// a programming error (the index layers compute these bounds), and
// rejecting them here keeps the assembly kernels' unchecked loads inside
// the arena.
func checkBatch(dim, arenaLen, stride int, idxs []int32, outLen int) {
	if outLen < len(idxs) {
		panic("vecmath: batch output shorter than index list")
	}
	if stride < dim {
		panic("vecmath: batch stride below query length")
	}
	for _, ix := range idxs {
		if ix < 0 || int(ix)*stride+dim > arenaLen {
			panic("vecmath: batch index outside arena")
		}
	}
}

// dotBatchScalar is the portable batched dot: a loop over the scalar
// reference kernel, and the oracle every SIMD batch kernel is tested
// against. Shape is pre-validated by the public wrappers.
func dotBatchScalar(q, arena []float32, stride int, idxs []int32, out []float32) {
	d := len(q)
	for j, ix := range idxs {
		base := int(ix) * stride
		out[j] = dotScalar(q, arena[base:base+d])
	}
}

// sqL2BatchScalar is the portable batched squared-L2 reference.
func sqL2BatchScalar(q, arena []float32, stride int, idxs []int32, out []float32) {
	d := len(q)
	for j, ix := range idxs {
		base := int(ix) * stride
		out[j] = sqL2Scalar(q, arena[base:base+d])
	}
}

// dotInt8BatchScalar is the portable batched int8 dot reference.
func dotInt8BatchScalar(q, arena []int8, stride int, idxs []int32, out []int32) {
	d := len(q)
	for j, ix := range idxs {
		base := int(ix) * stride
		out[j] = dotInt8Scalar(q, arena[base:base+d])
	}
}
