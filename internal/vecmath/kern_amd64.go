//go:build amd64 && !purego

package vecmath

// cpuid executes the CPUID instruction for the given leaf/subleaf.
// Implemented in kern_amd64.s.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0). Only valid when CPUID
// reports OSXSAVE; implemented in kern_amd64.s.
func xgetbv() (eax, edx uint32)

// dotAVX2 and sqL2AVX2 are the AVX2 float32 kernels (kern_amd64.s). They
// require n > 0 and both slices to hold at least n elements; the Go
// wrappers below enforce that. Each computes the canonical lane scheme of
// dotScalar/sqL2Scalar exactly — eight accumulator lanes in one YMM
// register, fixed-order reduction, sequential scalar tail — so results
// are bit-identical to the scalar tier.
//
//go:noescape
func dotAVX2(a, b *float32, n int) float32

//go:noescape
func sqL2AVX2(a, b *float32, n int) float32

// dotBatchAVX2 and sqL2BatchAVX2 are the batched AVX2 kernels
// (kern_amd64.s): one call scores the query against n arena candidates,
// running the identical per-candidate lane scheme as the single kernels
// with the candidate loop folded into the assembly — call overhead and
// reduction spills are paid once per batch, and the next candidate's
// first cache lines are software-prefetched while the current one is
// scored. They require n > 0, dim > 0, and pre-validated indices
// (checkBatch enforces that).
//
//go:noescape
func dotBatchAVX2(q, arena *float32, stride int, idxs *int32, n, dim int, out *float32)

//go:noescape
func sqL2BatchAVX2(q, arena *float32, stride int, idxs *int32, n, dim int, out *float32)

func dotSIMD(a, b []float32) float32 {
	if len(a) == 0 {
		return 0
	}
	return dotAVX2(&a[0], &b[0], len(a))
}

func sqL2SIMD(a, b []float32) float32 {
	if len(a) == 0 {
		return 0
	}
	return sqL2AVX2(&a[0], &b[0], len(a))
}

func dotBatchSIMD(q, arena []float32, stride int, idxs []int32, out []float32) {
	dotBatchAVX2(&q[0], &arena[0], stride, &idxs[0], len(idxs), len(q), &out[0])
}

func sqL2BatchSIMD(q, arena []float32, stride int, idxs []int32, out []float32) {
	sqL2BatchAVX2(&q[0], &arena[0], stride, &idxs[0], len(idxs), len(q), &out[0])
}

// amd64 CPU feature bits consulted by probeAVX2.
const (
	cpuidOSXSAVE = 1 << 27 // leaf 1 ECX
	cpuidAVX     = 1 << 28 // leaf 1 ECX
	cpuidAVX2    = 1 << 5  // leaf 7 EBX
	xcr0XMM      = 1 << 1  // XCR0: XMM state enabled by the OS
	xcr0YMM      = 1 << 2  // XCR0: YMM state enabled by the OS
)

// simdName is the amd64 SIMD tier. simdUsable reports whether its
// kernels may run: CPUID reports AVX and AVX2, and the OS has enabled YMM
// state saving (OSXSAVE + XCR0 bits 1 and 2) — AVX2 being present in
// CPUID is not enough to safely execute VEX.256 code. Probed once at
// init.
const simdName = "avx2"

var simdUsable = probeAVX2()

func probeAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	if ecx1&cpuidAVX == 0 || ebx7&cpuidAVX2 == 0 || ecx1&cpuidOSXSAVE == 0 {
		return false
	}
	xlo, _ := xgetbv()
	return xlo&(xcr0XMM|xcr0YMM) == xcr0XMM|xcr0YMM
}
