package vecmath

import (
	"fmt"
	"testing"
)

// Benchmark sinks keep the compiler from eliding the kernel calls.
var (
	sinkI int32
	sinkF float32
)

// BenchmarkKernels compares the int8 speed-tier kernel (AVX2 on amd64
// when CPUID allows) against the float32 traversal kernel and the
// portable scalar fallback at several embedding widths: the quantized
// tier's per-distance advantage is the int8/float32 ratio printed here,
// and the SIMD float32 tier's advantage is the serving/scalar ratio. dim
// 256 is the repo's default embedding width (embed.DefaultDim).
// b.SetBytes makes the tool report MB/s (two input vectors of 4-byte
// lanes per call).
func BenchmarkKernels(b *testing.B) {
	for _, dim := range []int{64, 256, 384} {
		a8 := make([]int8, dim)
		b8 := make([]int8, dim)
		af := make([]float32, dim)
		bf := make([]float32, dim)
		for i := 0; i < dim; i++ {
			a8[i] = int8(i*7 - 60)
			b8[i] = int8(i*3 - 40)
			af[i] = float32(i) * 0.01
			bf[i] = float32(i) * 0.02
		}
		floatBytes := int64(2 * 4 * dim)
		b.Run(fmt.Sprintf("DotInt8/%d", dim), func(b *testing.B) {
			b.SetBytes(int64(2 * dim))
			for i := 0; i < b.N; i++ {
				sinkI = DotInt8(a8, b8)
			}
		})
		b.Run(fmt.Sprintf("DotInt8Scalar/%d", dim), func(b *testing.B) {
			b.SetBytes(int64(2 * dim))
			for i := 0; i < b.N; i++ {
				sinkI = dotInt8Scalar(a8, b8)
			}
		})
		b.Run(fmt.Sprintf("Dot/%s/%d", Tier(), dim), func(b *testing.B) {
			b.SetBytes(floatBytes)
			for i := 0; i < b.N; i++ {
				sinkF = Dot(af, bf)
			}
		})
		b.Run(fmt.Sprintf("Dot/scalar/%d", dim), func(b *testing.B) {
			b.SetBytes(floatBytes)
			for i := 0; i < b.N; i++ {
				sinkF = dotScalar(af, bf)
			}
		})
		b.Run(fmt.Sprintf("SquaredL2/%s/%d", Tier(), dim), func(b *testing.B) {
			b.SetBytes(floatBytes)
			for i := 0; i < b.N; i++ {
				sinkF = SquaredL2(af, bf)
			}
		})
		b.Run(fmt.Sprintf("SquaredL2/scalar/%d", dim), func(b *testing.B) {
			b.SetBytes(floatBytes)
			for i := 0; i < b.N; i++ {
				sinkF = sqL2Scalar(af, bf)
			}
		})
		b.Run(fmt.Sprintf("CosineWithNorms/%s/%d", Tier(), dim), func(b *testing.B) {
			b.SetBytes(floatBytes)
			na, nb := Norm(af), Norm(bf)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkF = CosineWithNorms(af, bf, na, nb)
			}
		})
	}
}

// BenchmarkBatchKernels compares one batched call against a loop of
// single calls at the traversal shape that matters: one query scored
// against an HNSW adjacency list (32 neighbors) of 384-wide vectors.
// The batched/single ratio is the call-amortization win the traversal
// layer banks on. One iteration scores a whole batch of 32 candidates, so
// ns/op is per batch; each row also reports ns/cand, the time per scored
// candidate, which reads on the scale of vecmath.dot_batch.ns_per_cand.
func BenchmarkBatchKernels(b *testing.B) {
	const dim, rows, batch = 384, 64, 32
	q := make([]float32, dim)
	arena := make([]float32, rows*dim)
	q8 := make([]int8, dim)
	arena8 := make([]int8, rows*dim)
	for i := range arena {
		arena[i] = float32(i%97) * 0.013
	}
	for i := range arena8 {
		arena8[i] = int8(i%251 - 125)
	}
	for i := 0; i < dim; i++ {
		q[i] = float32(i) * 0.007
		q8[i] = int8(i*5 - 90)
	}
	idxs := make([]int32, batch)
	for j := range idxs {
		idxs[j] = int32((j * 29) % rows)
	}
	outF := make([]float32, batch)
	out8 := make([]int32, batch)
	perCand := int64(2 * 4 * dim)

	b.Run(fmt.Sprintf("DotBatch/%s/%d", Tier(), dim), func(b *testing.B) {
		b.SetBytes(perCand * batch)
		for i := 0; i < b.N; i++ {
			DotBatch(q, arena, dim, idxs, outF)
		}
		perCandidate(b, batch)
	})
	b.Run(fmt.Sprintf("DotLoop/%s/%d", Tier(), dim), func(b *testing.B) {
		b.SetBytes(perCand * batch)
		for i := 0; i < b.N; i++ {
			for _, ix := range idxs {
				sinkF = Dot(q, arena[int(ix)*dim:int(ix)*dim+dim])
			}
		}
		perCandidate(b, batch)
	})
	b.Run(fmt.Sprintf("SquaredL2Batch/%s/%d", Tier(), dim), func(b *testing.B) {
		b.SetBytes(perCand * batch)
		for i := 0; i < b.N; i++ {
			SquaredL2Batch(q, arena, dim, idxs, outF)
		}
		perCandidate(b, batch)
	})
	b.Run(fmt.Sprintf("DotInt8Batch/%s/%d", Int8Tier(), dim), func(b *testing.B) {
		b.SetBytes(int64(2*dim) * batch)
		for i := 0; i < b.N; i++ {
			DotInt8Batch(q8, arena8, dim, idxs, out8)
		}
		perCandidate(b, batch)
	})
	b.Run(fmt.Sprintf("DotInt8Loop/%s/%d", Int8Tier(), dim), func(b *testing.B) {
		b.SetBytes(int64(2*dim) * batch)
		for i := 0; i < b.N; i++ {
			for _, ix := range idxs {
				sinkI = DotInt8(q8, arena8[int(ix)*dim:int(ix)*dim+dim])
			}
		}
		perCandidate(b, batch)
	})
}

// perCandidate reports a batch benchmark's time per scored candidate: each
// of its b.N iterations scores batch candidates.
func perCandidate(b *testing.B, batch int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/cand")
}
