package vecmath

import "os"

// floatKernels is the float32 half of a dispatch tier: the two distance
// kernels everything else in the package is built from (Norm and
// CosineWithNorms ride dot) plus their batched arena forms. Every kernel
// in a half follows the canonical lane-accumulation scheme documented on
// dotScalar, so the tier never changes a result, only throughput.
type floatKernels struct {
	name      string
	dot       func(a, b []float32) float32
	sqL2      func(a, b []float32) float32
	dotBatch  func(q, arena []float32, stride int, idxs []int32, out []float32)
	sqL2Batch func(q, arena []float32, stride int, idxs []int32, out []float32)
}

// int8Kernels is the int8 half of a dispatch tier: the quantized speed
// tier's int32-accumulating dot product, single and batched. Integer math
// is exact, so all int8 tiers are bit-identical by construction.
type int8Kernels struct {
	name  string
	dot   func(a, b []int8) int32
	batch func(q, arena []int8, stride int, idxs []int32, out []int32)
}

// kernelSet is one assembled dispatch tier — a float32 half paired with an
// int8 half. The two halves are detected independently (SSE2 int8 exists
// on machines whose float32 tier is scalar).
type kernelSet struct {
	name         string
	int8Name     string
	dot          func(a, b []float32) float32
	sqL2         func(a, b []float32) float32
	dotBatch     func(q, arena []float32, stride int, idxs []int32, out []float32)
	sqL2Batch    func(q, arena []float32, stride int, idxs []int32, out []float32)
	dotInt8      func(a, b []int8) int32
	dotInt8Batch func(q, arena []int8, stride int, idxs []int32, out []int32)
}

// assemble pairs a float32 half with an int8 half into one dispatchable
// set.
func assemble(f floatKernels, i8 int8Kernels) *kernelSet {
	return &kernelSet{
		name:         f.name,
		int8Name:     i8.name,
		dot:          f.dot,
		sqL2:         f.sqL2,
		dotBatch:     f.dotBatch,
		sqL2Batch:    f.sqL2Batch,
		dotInt8:      i8.dot,
		dotInt8Batch: i8.batch,
	}
}

// scalarFloat and scalarInt8 are the pure-Go halves, available everywhere.
// They are both the fallback when no SIMD tier is usable and the reference
// the SIMD tiers are differentially tested against.
var (
	scalarFloat = floatKernels{name: "scalar", dot: dotScalar, sqL2: sqL2Scalar, dotBatch: dotBatchScalar, sqL2Batch: sqL2BatchScalar}
	scalarInt8  = int8Kernels{name: "scalar", dot: dotInt8Scalar, batch: dotInt8BatchScalar}
)

// floatTiers and int8Tiers are every half this CPU can run, best first,
// always ending with the scalar half. Resolved once at init by the
// per-architecture detectFloatKernels/detectInt8Kernels (CPUID on amd64 —
// AVX2 is not in the baseline, unlike the int8 kernel's SSE2 floor; NEON
// is baseline on arm64, so detection there is unconditional). The
// differential tests walk every rung.
var (
	floatTiers = detectFloatKernels()
	int8Tiers  = detectInt8Kernels()
)

// forceScalarEnv is the environment variable that pins the process to the
// all-scalar tier (any non-empty value) — float32 and int8 kernels both,
// so a forced process exercises every portable code path. It exists for
// comparing tiers across whole processes (benchmarks, the tier1-scalar
// verify pass) without a code change.
const forceScalarEnv = "PNEUMA_FORCE_SCALAR"

// kernels is the dispatch tier every public kernel call runs on: the best
// float32 and int8 halves this CPU supports, or the scalar pair under
// forceScalarEnv. Chosen once at init and never retargeted.
var kernels = pickTier(os.Getenv(forceScalarEnv) != "")

// pickTier assembles the scalar pair when forceScalar is set, else the
// best detected pair.
func pickTier(forceScalar bool) *kernelSet {
	if forceScalar {
		return assemble(scalarFloat, scalarInt8)
	}
	return assemble(floatTiers[0], int8Tiers[0])
}

// Tier returns the name of the float32 dispatch tier serving kernel calls:
// "avx2", "neon" or "scalar".
func Tier() string { return kernels.name }

// Int8Tier returns the name of the int8 dispatch tier serving
// DotInt8/DotInt8Batch calls: "avx2", "sse2" or "scalar".
func Int8Tier() string { return kernels.int8Name }
