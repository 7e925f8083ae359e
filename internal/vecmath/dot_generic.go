//go:build !amd64 || purego

package vecmath

// Platforms without int8 assembly (arm64 included — the NEON tier covers
// float32 only so far) run the portable scalar loop. Integer math is
// exact, so this differs from the amd64 kernel in speed only.
const int8SIMD = false

func dotInt8SIMD(a, b []int8) int32 { return dotInt8Scalar(a, b) }

func dotInt8BatchSIMD(q, arena []int8, stride int, idxs []int32, out []int32) {
	dotInt8BatchScalar(q, arena, stride, idxs, out)
}
