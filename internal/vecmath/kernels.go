package vecmath

import "os"

// Each architecture's file set supplies the same names, and the public
// kernels call them directly:
//
//   - simdName and simdUsable: the SIMD tier's name and whether this CPU
//     can run it (kern_amd64.go probes AVX2, kern_arm64.go's NEON is
//     always usable, kern_other.go has none).
//   - dotSIMD, sqL2SIMD, dotBatchSIMD and sqL2BatchSIMD: the float32
//     kernels of that tier.
//   - dotInt8SIMD, dotInt8BatchSIMD and int8SIMD: its int8 kernels, and
//     whether they are assembly (dot_amd64.go) or the scalar loop
//     (dot_generic.go).
//
// Every kernel follows the canonical lane-accumulation scheme documented
// on dotScalar (integer math is exact for int8), so the tier never
// changes a result, only throughput.

// forceScalarEnv is the environment variable that pins the process to the
// scalar kernels (any non-empty value) — float32 and int8 both, so a
// forced process exercises every portable code path. It exists for
// comparing tiers across whole processes (benchmarks, the tier1-scalar
// verify pass) without a code change.
const forceScalarEnv = "PNEUMA_FORCE_SCALAR"

// simd reports whether the public kernels run this architecture's SIMD
// kernels: the CPU can run them and forceScalarEnv is unset. Decided once
// at init and never changed.
var simd = simdUsable && os.Getenv(forceScalarEnv) == ""

// Tier returns the name of the float32 tier serving kernel calls: "avx2",
// "neon" or "scalar".
func Tier() string {
	if simd {
		return simdName
	}
	return "scalar"
}

// Int8Tier returns the name of the int8 tier serving DotInt8/DotInt8Batch
// calls: "avx2" or "scalar".
func Int8Tier() string {
	if simd && int8SIMD {
		return simdName
	}
	return "scalar"
}
