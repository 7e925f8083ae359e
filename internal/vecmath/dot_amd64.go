//go:build amd64 && !purego

package vecmath

// dotInt8AVX2 is the int8 kernel of the AVX2 tier (dot_amd64.s): 32 bytes
// per iteration, each 16-byte half sign-extended to 16×int16 (VPMOVSXBW)
// and pair-summed into 8×int32 lanes (VPMADDWD). Exact integer math,
// bit-identical to the scalar kernel.
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

// int8SIMD: the amd64 tier's int8 kernels are assembly.
const int8SIMD = true

func dotInt8SIMD(a, b []int8) int32 {
	if len(a) == 0 {
		return 0
	}
	return dotInt8AVX2(&a[0], &b[0], len(a))
}

func dotInt8BatchSIMD(q, arena []int8, stride int, idxs []int32, out []int32) {
	dotInt8BatchAVX2(&q[0], &arena[0], stride, &idxs[0], len(idxs), len(q), &out[0])
}
