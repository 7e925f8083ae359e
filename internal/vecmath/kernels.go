package vecmath

import (
	"os"
	"sync/atomic"
)

// floatKernels is the float32 half of a dispatch tier: the two distance
// kernels everything else in the package is built from (Norm and
// CosineWithNorms ride dot) plus their batched arena forms. Every kernel
// in a half follows the canonical lane-accumulation scheme documented on
// dotScalar, so switching tiers never changes a result, only throughput.
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
// on machines whose float32 tier is scalar) but always swap together
// through the one seam, so a reader of Tier/Int8Tier sees a consistent
// pair.
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
// per-architecture detectFloatTiers/detectInt8Tiers (CPUID on amd64 —
// AVX2 is not in the baseline, unlike the int8 kernel's SSE2 floor; NEON
// is baseline on arm64, so detection there is unconditional).
var (
	floatTiers = detectFloatTiers()
	int8Tiers  = detectInt8Tiers()
)

// scalarSet is the all-scalar tier ForceScalar pins; detected is the best
// pair the CPU supports.
var (
	scalarSet = assemble(scalarFloat, scalarInt8)
	detected  = assemble(floatTiers[0], int8Tiers[0])
)

// active is the dispatch seam: every public kernel call loads it once.
// An atomic pointer rather than plain function variables so ForceScalar
// and ForceTiers can retarget the seam while queries are in flight (the
// race-detector contract the dispatch-seam race test pins down); a swap
// affects only speed, never results.
var active atomic.Pointer[kernelSet]

// ForceScalarEnv is the environment variable that pins the package to the
// all-scalar tier before the first kernel call (any non-empty value) —
// float32 and int8 kernels both, so a forced process exercises every
// portable code path. The exported ForceScalar setter does the same at
// runtime; the env hook exists for comparing tiers across whole processes
// (benchmarks, the tier1-scalar verify pass) without a code change.
const ForceScalarEnv = "PNEUMA_FORCE_SCALAR"

func init() {
	active.Store(initialTier(os.Getenv(ForceScalarEnv)))
}

// initialTier resolves the startup dispatch tier from the ForceScalarEnv
// value. Factored out of init so tier-1 tests can exercise the env-side
// override without re-execing the process.
func initialTier(forceScalar string) *kernelSet {
	if forceScalar != "" {
		return scalarSet
	}
	return detected
}

// ForceScalar pins the package to the all-scalar tier (on=true) or
// restores the detected tier pair (on=false). Safe to call concurrently
// with running kernels; callers pairing a force with measurements should
// use defer ForceScalar(false).
func ForceScalar(on bool) {
	if on {
		active.Store(scalarSet)
	} else {
		active.Store(detected)
	}
}

// ForceTiers retargets the dispatch seam to the named float32 and int8
// tiers — any pairing of FloatTiers() and Int8Tiers() entries — and
// reports whether both names were available on this CPU (the seam is left
// untouched when either is not). It exists so benchmarks and differential
// tests can measure intermediate rungs (e.g. SSE2 int8 on an AVX2
// machine) in-process; serving code should never call it. Like
// ForceScalar it is safe to call while kernels run.
func ForceTiers(floatTier, int8Tier string) bool {
	var f *floatKernels
	for i := range floatTiers {
		if floatTiers[i].name == floatTier {
			f = &floatTiers[i]
			break
		}
	}
	var i8 *int8Kernels
	for i := range int8Tiers {
		if int8Tiers[i].name == int8Tier {
			i8 = &int8Tiers[i]
			break
		}
	}
	if f == nil || i8 == nil {
		return false
	}
	active.Store(assemble(*f, *i8))
	return true
}

// Tier returns the name of the float32 dispatch tier currently serving
// kernel calls: "avx2", "neon" or "scalar".
func Tier() string { return active.Load().name }

// Int8Tier returns the name of the int8 dispatch tier currently serving
// DotInt8/DotInt8Batch calls: "avx2", "sse2" or "scalar".
func Int8Tier() string { return active.Load().int8Name }

// DetectedTier returns the best float32 tier this CPU supports,
// independent of any force override.
func DetectedTier() string { return detected.name }

// DetectedInt8Tier returns the best int8 tier this CPU supports,
// independent of any force override.
func DetectedInt8Tier() string { return detected.int8Name }

// FloatTiers returns the names of every float32 tier this CPU can run,
// best first, ending with "scalar". Valid inputs for ForceTiers.
func FloatTiers() []string {
	names := make([]string, len(floatTiers))
	for i := range floatTiers {
		names[i] = floatTiers[i].name
	}
	return names
}

// Int8Tiers returns the names of every int8 tier this CPU can run, best
// first, ending with "scalar". Valid inputs for ForceTiers.
func Int8Tiers() []string {
	names := make([]string, len(int8Tiers))
	for i := range int8Tiers {
		names[i] = int8Tiers[i].name
	}
	return names
}

// Features returns the detected CPU features relevant to kernel dispatch
// (e.g. "avx2", "fma" on amd64; "neon" on arm64; empty on other
// architectures), for logging beside kernel numbers so they stay
// comparable across machines.
func Features() []string { return cpuFeatures() }
