package vecmath

import "math"

// Dot returns the dot product of a and b. Panics if lengths differ — vector
// dimensionality is fixed per index, so a mismatch is a programming error.
//
// The result is computed by the dispatch tier's kernel (see doc.go): every
// implementation follows the same canonical lane-accumulation scheme, so
// the value is bit-identical whether the scalar, AVX2 or NEON kernel runs.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("vecmath: dimension mismatch")
	}
	return kernels.dot(a, b)
}

// dotScalar is the portable reference implementation of Dot and the
// canonical definition of its result: blocks of eight elements feed eight
// independent lane accumulators (element i goes to lane i mod 8), the
// lanes are reduced in the fixed order ((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7)),
// and the sub-block tail is added sequentially onto that block sum. The
// AVX2 kernel holds the eight lanes in one YMM register and the NEON
// kernel in two 4-lane registers, so all three produce bit-identical
// results at every input length. The explicit float32 conversions around
// each product are load-bearing: they force the product to be rounded
// before the add, which keeps the compiler (the arm64 backend in
// particular) from contracting multiply+add into a fused FMA with
// different rounding.
func dotScalar(a, b []float32) float32 {
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	i := 0
	for ; i+8 <= len(a) && i+8 <= len(b); i += 8 {
		aa := a[i : i+8 : i+8]
		bb := b[i : i+8 : i+8]
		s0 += float32(aa[0] * bb[0])
		s1 += float32(aa[1] * bb[1])
		s2 += float32(aa[2] * bb[2])
		s3 += float32(aa[3] * bb[3])
		s4 += float32(aa[4] * bb[4])
		s5 += float32(aa[5] * bb[5])
		s6 += float32(aa[6] * bb[6])
		s7 += float32(aa[7] * bb[7])
	}
	sum := ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
	for ; i < len(a); i++ {
		sum += float32(a[i] * b[i])
	}
	return sum
}

// SquaredL2 returns the squared Euclidean distance between a and b. Like
// Dot it runs on the dispatch tier's kernel and is bit-identical across
// dispatch tiers (same lane scheme, with d*d in place of a*b).
func SquaredL2(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("vecmath: dimension mismatch")
	}
	return kernels.sqL2(a, b)
}

// sqL2Scalar is the portable reference implementation of SquaredL2, built
// on the same canonical lane scheme as dotScalar (see there for why the
// float32 conversions matter).
func sqL2Scalar(a, b []float32) float32 {
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	i := 0
	for ; i+8 <= len(a) && i+8 <= len(b); i += 8 {
		aa := a[i : i+8 : i+8]
		bb := b[i : i+8 : i+8]
		d0 := aa[0] - bb[0]
		d1 := aa[1] - bb[1]
		d2 := aa[2] - bb[2]
		d3 := aa[3] - bb[3]
		d4 := aa[4] - bb[4]
		d5 := aa[5] - bb[5]
		d6 := aa[6] - bb[6]
		d7 := aa[7] - bb[7]
		s0 += float32(d0 * d0)
		s1 += float32(d1 * d1)
		s2 += float32(d2 * d2)
		s3 += float32(d3 * d3)
		s4 += float32(d4 * d4)
		s5 += float32(d5 * d5)
		s6 += float32(d6 * d6)
		s7 += float32(d7 * d7)
	}
	sum := ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		sum += float32(d * d)
	}
	return sum
}

// Norm returns the Euclidean norm of v: sqrt of the self dot product. It
// rides the Dot kernel, so stored norms are bit-identical across dispatch
// tiers too — they feed CosineWithNorms at query time, where any per-tier
// drift would break cross-machine result parity.
func Norm(v []float32) float32 {
	return float32(math.Sqrt(float64(kernels.dot(v, v))))
}

// Normalize scales v to unit length in place and returns it. The zero vector
// is returned unchanged.
func Normalize(v []float32) []float32 {
	n := Norm(v)
	if n == 0 {
		return v
	}
	inv := 1 / n
	for i := range v {
		v[i] *= inv
	}
	return v
}

// Cosine returns the cosine similarity of a and b in [-1, 1]; 0 when either
// vector is zero.
func Cosine(a, b []float32) float32 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// CosineWithNorms is Cosine for callers that already know both vector norms
// (the HNSW index stores them at insert time); it skips the two norm
// recomputations. Semantics match Cosine exactly: 0 when either norm is 0.
// The division happens once, outside the kernel, so the whole expression
// is as bit-identical across dispatch tiers as Dot itself.
func CosineWithNorms(a, b []float32, na, nb float32) float32 {
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// DotInt8 returns the dot product of two int8 vectors, accumulating in
// int32. It is the scoring kernel of the quantized HNSW fast path: with
// components in [-127, 127] the accumulator is exact for any dimension up
// to 2^31/127^2 (≈133k), far beyond any embedding width here, so the
// result is bit-identical across every implementation. Like the float32
// kernels it runs on the dispatch tier (see Int8Tier): on amd64 an
// AVX2 kernel when CPUID allows (32 lanes per iteration, sign-extended
// pair-sums into int32 lanes) above an SSE2 baseline kernel (16 lanes via
// PMADDWD — SSE2 needs no feature gate on amd64); elsewhere the unrolled
// scalar loop of dotInt8Scalar. Integer arithmetic has no rounding, so the
// dispatch never changes results, only speed. Panics if lengths differ,
// like Dot.
func DotInt8(a, b []int8) int32 {
	if len(a) != len(b) {
		panic("vecmath: dimension mismatch")
	}
	return kernels.dotInt8(a, b)
}

// dotInt8Scalar is the portable reference implementation of DotInt8: the
// non-amd64 kernel, and the oracle the assembly kernel is tested against.
// The body is unrolled 16-wide over full-length sub-slices: the re-slices
// prove all sixteen loads in bounds at once (one check per block instead
// of one per element — the int8 loads otherwise bounds-check-dominate,
// unlike the float32 kernels), and four independent accumulators keep the
// sign-extend/multiply chains pipelined.
func dotInt8Scalar(a, b []int8) int32 {
	var s0, s1, s2, s3 int32
	i := 0
	for ; i+16 <= len(a) && i+16 <= len(b); i += 16 {
		aa := a[i : i+16 : i+16]
		bb := b[i : i+16 : i+16]
		s0 += int32(aa[0])*int32(bb[0]) + int32(aa[4])*int32(bb[4]) + int32(aa[8])*int32(bb[8]) + int32(aa[12])*int32(bb[12])
		s1 += int32(aa[1])*int32(bb[1]) + int32(aa[5])*int32(bb[5]) + int32(aa[9])*int32(bb[9]) + int32(aa[13])*int32(bb[13])
		s2 += int32(aa[2])*int32(bb[2]) + int32(aa[6])*int32(bb[6]) + int32(aa[10])*int32(bb[10]) + int32(aa[14])*int32(bb[14])
		s3 += int32(aa[3])*int32(bb[3]) + int32(aa[7])*int32(bb[7]) + int32(aa[11])*int32(bb[11]) + int32(aa[15])*int32(bb[15])
	}
	for ; i < len(a); i++ {
		s0 += int32(a[i]) * int32(b[i])
	}
	return (s0 + s1) + (s2 + s3)
}
