package vecmath

import (
	"math"
	"math/rand"
	"os"
	"testing"

	"pneuma/internal/racebuild"
)

// floatKernels and int8Kernels are one rung of a tier ladder: a tier's
// name and its kernels, single and batched.
type floatKernels struct {
	name      string
	dot       func(a, b []float32) float32
	sqL2      func(a, b []float32) float32
	dotBatch  func(q, arena []float32, stride int, idxs []int32, out []float32)
	sqL2Batch func(q, arena []float32, stride int, idxs []int32, out []float32)
}

type int8Kernels struct {
	name  string
	dot   func(a, b []int8) int32
	batch func(q, arena []int8, stride int, idxs []int32, out []int32)
}

// floatTiers and int8Tiers are every rung this CPU can run, best first,
// always ending with scalar: the differential tests call each one
// directly, whichever tier serves the process. They are built from the
// names each architecture's file set supplies, so they also check that
// those names exist with the right signatures under every build.
var (
	floatTiers = ladder(simdUsable, floatKernels{name: simdName, dot: dotSIMD, sqL2: sqL2SIMD, dotBatch: dotBatchSIMD, sqL2Batch: sqL2BatchSIMD},
		floatKernels{name: "scalar", dot: dotScalar, sqL2: sqL2Scalar, dotBatch: dotBatchScalar, sqL2Batch: sqL2BatchScalar})
	int8Tiers = ladder(simdUsable && int8SIMD, int8Kernels{name: simdName, dot: dotInt8SIMD, batch: dotInt8BatchSIMD},
		int8Kernels{name: "scalar", dot: dotInt8Scalar, batch: dotInt8BatchScalar})
)

func ladder[K any](usable bool, fast, scalar K) []K {
	if usable {
		return []K{fast, scalar}
	}
	return []K{scalar}
}

// runBatch runs one rung's batch kernel behind the public entry points'
// shape check and empty-case handling.
func runBatch[T float32 | int8, O float32 | int32](kern func(q, arena []T, stride int, idxs []int32, out []O), q, arena []T, stride int, idxs []int32, out []O) {
	if checkBatch(len(q), len(arena), stride, idxs, out) {
		kern(q, arena, stride, idxs, out)
	}
}

// fillRand populates a pair of float32 slices with deterministic
// pseudo-random values spanning sign changes and magnitude spread, so the
// differential tests exercise real rounding behavior rather than neat
// integers.
func fillRand(rng *rand.Rand, a, b []float32) {
	for i := range a {
		a[i] = float32(rng.NormFloat64())
		b[i] = float32(rng.NormFloat64()) * 3.7
	}
}

// TestKernelTiersBitIdentical is the differential gate for the float32
// kernels: at every length 0..129 (several 8-lane blocks plus every tail
// residue) each tier this CPU can run must agree bit-for-bit with the
// scalar reference on dot and squared L2, and the public Dot, SquaredL2,
// Norm and CosineWithNorms — on whichever tier serves them — must equal
// their scalar definitions. On a machine without a SIMD tier both sides
// run the same scalar code and the test degenerates to a no-op guard; on
// AVX2/NEON hardware it pins the lane-accumulation contract the whole
// repo's determinism rests on.
func TestKernelTiersBitIdentical(t *testing.T) {
	t.Logf("serving tier %q, int8 tier %q", Tier(), Int8Tier())
	rng := rand.New(rand.NewSource(42))
	for n := 0; n <= 129; n++ {
		a := make([]float32, n)
		b := make([]float32, n)
		fillRand(rng, a, b)
		wantDot, wantL2 := dotScalar(a, b), sqL2Scalar(a, b)
		for _, f := range floatTiers {
			if got := f.dot(a, b); got != wantDot {
				t.Fatalf("dot len %d: %s tier %v, scalar %v (must be bit-identical)", n, f.name, got, wantDot)
			}
			if got := f.sqL2(a, b); got != wantL2 {
				t.Fatalf("sqL2 len %d: %s tier %v, scalar %v", n, f.name, got, wantL2)
			}
		}
		if got := Dot(a, b); got != wantDot {
			t.Fatalf("Dot len %d: %s tier %v, scalar %v", n, Tier(), got, wantDot)
		}
		if got := SquaredL2(a, b); got != wantL2 {
			t.Fatalf("SquaredL2 len %d: %s tier %v, scalar %v", n, Tier(), got, wantL2)
		}
		na := float32(math.Sqrt(float64(dotScalar(a, a))))
		nb := float32(math.Sqrt(float64(dotScalar(b, b))))
		if got := Norm(a); got != na {
			t.Fatalf("Norm len %d: %s tier %v, scalar %v", n, Tier(), got, na)
		}
		var wantCos float32
		if na != 0 && nb != 0 {
			wantCos = wantDot / (na * nb)
		}
		if got := CosineWithNorms(a, b, Norm(a), Norm(b)); got != wantCos {
			t.Fatalf("CosineWithNorms len %d: %s tier %v, scalar %v", n, Tier(), got, wantCos)
		}
	}
}

// TestKernelTiersOddOffsets re-runs the differential check, on every
// tier, on slices that start at odd element offsets into a shared backing
// array: the SIMD kernels use unaligned loads, and a misaligned base
// pointer must change neither behavior nor results. Offsets 1, 3 and 5
// break 32-, 16- and 8-byte alignment respectively.
func TestKernelTiersOddOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	back := make([]float32, 200)
	for i := range back {
		back[i] = float32(rng.NormFloat64())
	}
	for _, f := range floatTiers {
		for _, off := range []int{1, 3, 5} {
			for n := 0; n <= 80; n++ {
				a := back[off : off+n]
				b := back[off+n : off+2*n]
				if got, want := f.dot(a, b), dotScalar(a, b); got != want {
					t.Fatalf("%s dot off %d len %d: %v != scalar %v", f.name, off, n, got, want)
				}
				if got, want := f.sqL2(a, b), sqL2Scalar(a, b); got != want {
					t.Fatalf("%s sqL2 off %d len %d: %v != scalar %v", f.name, off, n, got, want)
				}
			}
		}
	}
}

// TestTierFollowsEnv checks the tier serving this process against its
// environment, which makes `make tier1-scalar` self-checking: with
// PNEUMA_FORCE_SCALAR set every kernel runs scalar, and without it the
// best rung of each ladder serves.
func TestTierFollowsEnv(t *testing.T) {
	want, want8 := floatTiers[0].name, int8Tiers[0].name
	if os.Getenv(forceScalarEnv) != "" {
		want, want8 = "scalar", "scalar"
	}
	if Tier() != want || Int8Tier() != want8 {
		t.Fatalf("%s=%q: serving %q/%q, want %q/%q", forceScalarEnv, os.Getenv(forceScalarEnv), Tier(), Int8Tier(), want, want8)
	}
}

// TestKernelsTakeStackVectors holds every public kernel to 0 allocations
// on vectors in stack arrays: the kernels are called directly, never
// through a function value, so escape analysis can see that no argument
// outlives the call. A kernel whose arguments leak moves each array
// handed to it to the heap, once per call.
func TestKernelsTakeStackVectors(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const dim = 64
	kernels := []struct {
		name string
		fn   func()
	}{
		{"Dot", func() { var a, b [dim]float32; sinkF = Dot(a[:], b[:]) }},
		{"SquaredL2", func() { var a, b [dim]float32; sinkF = SquaredL2(a[:], b[:]) }},
		{"Norm", func() { var a [dim]float32; sinkF = Norm(a[:]) }},
		{"Normalize", func() { var a [dim]float32; a[0] = 1; Normalize(a[:]); sinkF = a[0] }},
		{"Cosine", func() { var a, b [dim]float32; sinkF = Cosine(a[:], b[:]) }},
		{"CosineWithNorms", func() { var a, b [dim]float32; sinkF = CosineWithNorms(a[:], b[:], 1, 1) }},
		{"DotInt8", func() { var a, b [dim]int8; sinkI = DotInt8(a[:], b[:]) }},
		{"DotBatch", func() {
			var q [dim]float32
			var arena [4 * dim]float32
			idxs := [3]int32{2, 0, 3}
			var out [3]float32
			DotBatch(q[:], arena[:], dim, idxs[:], out[:])
			sinkF = out[0]
		}},
		{"SquaredL2Batch", func() {
			var q [dim]float32
			var arena [4 * dim]float32
			idxs := [3]int32{2, 0, 3}
			var out [3]float32
			SquaredL2Batch(q[:], arena[:], dim, idxs[:], out[:])
			sinkF = out[0]
		}},
		{"DotInt8Batch", func() {
			var q [dim]int8
			var arena [4 * dim]int8
			idxs := [3]int32{2, 0, 3}
			var out [3]int32
			DotInt8Batch(q[:], arena[:], dim, idxs[:], out[:])
			sinkI = out[0]
		}},
	}
	var total float64
	for _, k := range kernels {
		n := testing.AllocsPerRun(20, k.fn)
		if n != 0 {
			t.Errorf("%s on stack vectors allocates %v times, want 0", k.name, n)
		}
		total += n
	}
	t.Logf("%s tier: %v allocations over %d kernels", Tier(), total, len(kernels))
}
