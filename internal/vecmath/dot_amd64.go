//go:build amd64 && !purego

package vecmath

// dotInt8SSE2 is the baseline int8 assembly kernel on amd64: 16 lanes
// per iteration via PUNPCKLBW/PSRAW sign extension and PMADDWD
// multiply-accumulate, with a scalar tail. SSE2 is part of the amd64
// baseline, so this tier needs no runtime feature detection. All
// arithmetic is exact integer math, so the result is bit-identical to the
// portable scalar kernel on every input.
//
//go:noescape
func dotInt8SSE2(a, b *int8, n int) int32

// dotInt8AVX2 is the CPUID-gated int8 kernel above the SSE2 baseline
// (dot_amd64.s): 32 bytes per iteration, each 16-byte half sign-extended
// to 16×int16 (VPMOVSXBW) and pair-summed into 8×int32 lanes (VPMADDWD).
// Exact integer math, bit-identical to SSE2 and scalar.
//
//go:noescape
func dotInt8AVX2(a, b *int8, n int) int32

// dotInt8BatchAVX2 is the batched form of dotInt8AVX2: the candidate loop
// runs inside the assembly, with the next candidate's first cache lines
// software-prefetched while the current one is scored. Requires n > 0,
// dim > 0 and pre-validated indices.
//
//go:noescape
func dotInt8BatchAVX2(q, arena *int8, stride int, idxs *int32, n, dim int, out *int32)

func dotInt8SSE2Kernel(a, b []int8) int32 {
	if len(a) == 0 {
		return 0
	}
	return dotInt8SSE2(&a[0], &b[0], len(a))
}

func dotInt8AVX2Kernel(a, b []int8) int32 {
	if len(a) == 0 {
		return 0
	}
	return dotInt8AVX2(&a[0], &b[0], len(a))
}

// dotInt8BatchSSE2Kernel is the SSE2 tier's batched entry: a Go loop over
// the single-call kernel. It still amortizes the dispatch-seam load and
// the wrapper's shape validation across the batch; the AVX2 tier is the
// one that folds the loop into assembly.
func dotInt8BatchSSE2Kernel(q, arena []int8, stride int, idxs []int32, out []int32) {
	d := len(q)
	for j, ix := range idxs {
		out[j] = dotInt8SSE2(&q[0], &arena[int(ix)*stride], d)
	}
}

func dotInt8BatchAVX2Kernel(q, arena []int8, stride int, idxs []int32, out []int32) {
	dotInt8BatchAVX2(&q[0], &arena[0], stride, &idxs[0], len(idxs), len(q), &out[0])
}

// detectInt8Kernels lists the int8 tiers this CPU can run, best first: the
// gated AVX2 kernel when usable, the ungated SSE2 baseline, then scalar.
func detectInt8Kernels() []int8Kernels {
	tiers := []int8Kernels{
		{name: "sse2", dot: dotInt8SSE2Kernel, batch: dotInt8BatchSSE2Kernel},
		scalarInt8,
	}
	if avx2Usable {
		tiers = append([]int8Kernels{
			{name: "avx2", dot: dotInt8AVX2Kernel, batch: dotInt8BatchAVX2Kernel},
		}, tiers...)
	}
	return tiers
}
