package vecmath

import (
	"math"
	"math/rand"
	"os"
	"testing"
)

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

// TestForceTiers pins the tier ladders the dispatch tier is picked from:
// both end at the scalar floor, names within a ladder are distinct, and
// any pairing of a float32 half with an int8 half assembles into a
// complete set that carries both names.
func TestForceTiers(t *testing.T) {
	if f, i8 := floatTiers[len(floatTiers)-1].name, int8Tiers[len(int8Tiers)-1].name; f != "scalar" || i8 != "scalar" {
		t.Fatalf("tier ladders must end with scalar: %q, %q", f, i8)
	}
	seen := map[string]bool{}
	for _, f := range floatTiers {
		if seen[f.name] {
			t.Fatalf("float32 tier %q listed twice", f.name)
		}
		seen[f.name] = true
	}
	seen = map[string]bool{}
	for _, i8 := range int8Tiers {
		if seen[i8.name] {
			t.Fatalf("int8 tier %q listed twice", i8.name)
		}
		seen[i8.name] = true
	}
	for _, f := range floatTiers {
		for _, i8 := range int8Tiers {
			k := assemble(f, i8)
			if k.name != f.name || k.int8Name != i8.name {
				t.Fatalf("assemble(%q, %q) named %q/%q", f.name, i8.name, k.name, k.int8Name)
			}
			if k.dot == nil || k.sqL2 == nil || k.dotBatch == nil || k.sqL2Batch == nil || k.dotInt8 == nil || k.dotInt8Batch == nil {
				t.Fatalf("assemble(%q, %q) left a kernel unset", f.name, i8.name)
			}
		}
	}
}

// TestForceScalarOverride pins the tier resolution: forcing selects the
// scalar pair, otherwise the best detected pair serves.
func TestForceScalarOverride(t *testing.T) {
	if k := pickTier(true); k.name != "scalar" || k.int8Name != "scalar" {
		t.Fatalf("pickTier(true) = %q/%q, want scalar/scalar", k.name, k.int8Name)
	}
	if k := pickTier(false); k.name != floatTiers[0].name || k.int8Name != int8Tiers[0].name {
		t.Fatalf("pickTier(false) = %q/%q, want best %q/%q", k.name, k.int8Name, floatTiers[0].name, int8Tiers[0].name)
	}
}

// TestTierFollowsEnv checks the tier serving this process against its
// environment, which makes `make tier1-scalar` self-checking: with
// PNEUMA_FORCE_SCALAR set every kernel runs scalar, and without it the
// best detected pair serves.
func TestTierFollowsEnv(t *testing.T) {
	want, want8 := floatTiers[0].name, int8Tiers[0].name
	if os.Getenv(forceScalarEnv) != "" {
		want, want8 = "scalar", "scalar"
	}
	if Tier() != want || Int8Tier() != want8 {
		t.Fatalf("%s=%q: serving %q/%q, want %q/%q", forceScalarEnv, os.Getenv(forceScalarEnv), Tier(), Int8Tier(), want, want8)
	}
}
