//go:build !amd64 || purego

package vecmath

// detectInt8Kernels on platforms without int8 assembly (arm64 included —
// the NEON rung there covers float32 only so far) offers just the
// portable scalar half. Integer math is exact, so this differs from the
// amd64 tiers in speed only.
func detectInt8Kernels() []int8Kernels { return []int8Kernels{scalarInt8} }
