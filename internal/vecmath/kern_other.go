//go:build (!amd64 && !arm64) || purego

package vecmath

// detectFloatKernels on architectures without a SIMD kernel (or with the
// purego tag) offers only the scalar tier; results are identical
// everywhere by the canonical lane-scheme contract, so only throughput
// differs.
func detectFloatKernels() []floatKernels { return []floatKernels{scalarFloat} }
