//go:build arm64 && !purego

package vecmath

// dotNEON and sqL2NEON are the NEON float32 kernels (kern_arm64.s). They
// require n > 0 and both slices to hold at least n elements; the Go
// wrappers below enforce that. Each computes the canonical lane scheme of
// dotScalar/sqL2Scalar exactly — eight accumulator lanes split across two
// 4-lane vector registers, fixed-order reduction, sequential scalar
// tail — so results are bit-identical to the scalar and AVX2 tiers.
//
//go:noescape
func dotNEON(a, b *float32, n int) float32

//go:noescape
func sqL2NEON(a, b *float32, n int) float32

// dotBatchNEON and sqL2BatchNEON are the batched NEON kernels
// (kern_arm64.s): the candidate loop runs inside the assembly with the
// same per-candidate lane scheme as the single kernels, prefetching the
// next candidate's first cache lines while the current one is scored.
// They require n > 0, dim > 0, and pre-validated indices.
//
//go:noescape
func dotBatchNEON(q, arena *float32, stride int, idxs *int32, n, dim int, out *float32)

//go:noescape
func sqL2BatchNEON(q, arena *float32, stride int, idxs *int32, n, dim int, out *float32)

// simdName is the arm64 SIMD tier. It needs no probe: Advanced SIMD
// (NEON) is part of the ARMv8-A baseline Go requires, so it is always
// usable.
const (
	simdName   = "neon"
	simdUsable = true
)

func dotSIMD(a, b []float32) float32 {
	if len(a) == 0 {
		return 0
	}
	return dotNEON(&a[0], &b[0], len(a))
}

func sqL2SIMD(a, b []float32) float32 {
	if len(a) == 0 {
		return 0
	}
	return sqL2NEON(&a[0], &b[0], len(a))
}

func dotBatchSIMD(q, arena []float32, stride int, idxs []int32, out []float32) {
	dotBatchNEON(&q[0], &arena[0], stride, &idxs[0], len(idxs), len(q), &out[0])
}

func sqL2BatchSIMD(q, arena []float32, stride int, idxs []int32, out []float32) {
	sqL2BatchNEON(&q[0], &arena[0], stride, &idxs[0], len(idxs), len(q), &out[0])
}
