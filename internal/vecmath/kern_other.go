//go:build (!amd64 && !arm64) || purego

package vecmath

// Architectures without a SIMD kernel (or builds with the purego tag) run
// the scalar kernels only; results are identical everywhere by the
// canonical lane-scheme contract, so only throughput differs.
const (
	simdName   = "scalar"
	simdUsable = false
)

func dotSIMD(a, b []float32) float32  { return dotScalar(a, b) }
func sqL2SIMD(a, b []float32) float32 { return sqL2Scalar(a, b) }

func dotBatchSIMD(q, arena []float32, stride int, idxs []int32, out []float32) {
	dotBatchScalar(q, arena, stride, idxs, out)
}

func sqL2BatchSIMD(q, arena []float32, stride int, idxs []int32, out []float32) {
	sqL2BatchScalar(q, arena, stride, idxs, out)
}
