package vecmath

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	if got := Dot([]float32{1, 2, 3}, []float32{4, 5, 6}); got != 32 {
		t.Fatalf("dot = %v, want 32", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float32{1}, []float32{1, 2})
}

func TestNormAndNormalize(t *testing.T) {
	v := []float32{3, 4}
	if got := Norm(v); got != 5 {
		t.Fatalf("norm = %v, want 5", got)
	}
	Normalize(v)
	if math.Abs(float64(Norm(v))-1) > 1e-6 {
		t.Fatalf("normalized norm = %v", Norm(v))
	}
	zero := []float32{0, 0}
	Normalize(zero)
	if zero[0] != 0 || zero[1] != 0 {
		t.Fatal("zero vector must stay zero")
	}
}

func TestCosine(t *testing.T) {
	a := []float32{1, 0}
	b := []float32{0, 1}
	if got := Cosine(a, b); got != 0 {
		t.Fatalf("orthogonal cosine = %v", got)
	}
	if got := Cosine(a, a); math.Abs(float64(got)-1) > 1e-6 {
		t.Fatalf("self cosine = %v", got)
	}
	if got := Cosine(a, []float32{0, 0}); got != 0 {
		t.Fatalf("zero-vector cosine = %v", got)
	}
	if got := Cosine(a, []float32{-1, 0}); math.Abs(float64(got)+1) > 1e-6 {
		t.Fatalf("opposite cosine = %v", got)
	}
}

func TestSquaredL2(t *testing.T) {
	if got := SquaredL2([]float32{1, 2}, []float32{4, 6}); got != 25 {
		t.Fatalf("sql2 = %v, want 25", got)
	}
}

// TestUnrolledKernelsMatchReference pins the lane-accumulated kernels
// against naive sequential reference loops at every length from 0 to 19,
// covering each tail-remainder case. The canonical reduction order differs
// from sequential summation only in the last ULPs, so a loose relative
// tolerance is enough to catch indexing bugs without flagging legitimate
// reassociation (the bit-exact cross-tier gate is TestKernelTiersBitIdentical).
func TestUnrolledKernelsMatchReference(t *testing.T) {
	refDot := func(a, b []float32) float64 {
		var s float64
		for i := range a {
			s += float64(a[i]) * float64(b[i])
		}
		return s
	}
	refL2 := func(a, b []float32) float64 {
		var s float64
		for i := range a {
			d := float64(a[i]) - float64(b[i])
			s += d * d
		}
		return s
	}
	close := func(got float32, want float64) bool {
		return math.Abs(float64(got)-want) <= 1e-4*(1+math.Abs(want))
	}
	for n := 0; n < 20; n++ {
		a := make([]float32, n)
		b := make([]float32, n)
		for i := 0; i < n; i++ {
			a[i] = float32(i)*0.25 - 1
			b[i] = 2 - float32(i)*0.5
		}
		if got, want := Dot(a, b), refDot(a, b); !close(got, want) {
			t.Fatalf("Dot len %d = %v, reference %v", n, got, want)
		}
		if got, want := SquaredL2(a, b), refL2(a, b); !close(got, want) {
			t.Fatalf("SquaredL2 len %d = %v, reference %v", n, got, want)
		}
		if got, want := Norm(a), math.Sqrt(refDot(a, a)); !close(got, want) {
			t.Fatalf("Norm len %d = %v, reference %v", n, got, want)
		}
		qa := make([]int8, n)
		qb := make([]int8, n)
		for i := 0; i < n; i++ {
			qa[i] = int8(i*13 - 110)
			qb[i] = int8(90 - i*11)
		}
		if got, want := DotInt8(qa, qb), refDotInt8(qa, qb); got != want {
			t.Fatalf("DotInt8 len %d = %v, reference %v (must be exact)", n, got, want)
		}
	}
}

// refDotInt8 is the naive sequential reference for the int8 kernel.
// Integer accumulation is associative, so the unrolled kernel must match
// it bit-for-bit at every length.
func refDotInt8(a, b []int8) int32 {
	var s int32
	for i := range a {
		s += int32(a[i]) * int32(b[i])
	}
	return s
}

// TestDotInt8KernelMatchesScalar sweeps every length through several SIMD
// blocks plus all tail residues, on pseudo-random values spanning the full
// code range including ±127: the serving kernel (AVX2 on amd64 when
// CPUID allows, scalar otherwise) and the portable scalar implementation
// must agree bit-for-bit with the naive reference. This is the
// differential gate for the assembly path — integer arithmetic leaves no
// rounding to hide behind.
func TestDotInt8KernelMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n <= 100; n++ {
		a := make([]int8, n)
		b := make([]int8, n)
		for i := 0; i < n; i++ {
			a[i] = int8(rng.Intn(255) - 127)
			b[i] = int8(rng.Intn(255) - 127)
		}
		if n > 1 { // force extreme codes into both the block body and the tail
			a[0], b[0] = 127, -127
			a[n-1], b[n-1] = -127, 127
		}
		want := refDotInt8(a, b)
		if got := DotInt8(a, b); got != want {
			t.Fatalf("DotInt8 len %d = %d, reference %d", n, got, want)
		}
		if got := dotInt8Scalar(a, b); got != want {
			t.Fatalf("dotInt8Scalar len %d = %d, reference %d", n, got, want)
		}
	}
}

// TestKernelsOnEmptyVectors pins every kernel's zero-length behavior
// explicitly (the length sweep above covers it too, but an empty arena or
// zero-dimension index must never panic or return garbage).
func TestKernelsOnEmptyVectors(t *testing.T) {
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil, nil) = %v, want 0", got)
	}
	if got := SquaredL2(nil, nil); got != 0 {
		t.Fatalf("SquaredL2(nil, nil) = %v, want 0", got)
	}
	if got := Norm(nil); got != 0 {
		t.Fatalf("Norm(nil) = %v, want 0", got)
	}
	if got := DotInt8(nil, nil); got != 0 {
		t.Fatalf("DotInt8(nil, nil) = %v, want 0", got)
	}
	if got := Cosine(nil, nil); got != 0 {
		t.Fatalf("Cosine(nil, nil) = %v, want 0", got)
	}
}

func TestDotInt8Extremes(t *testing.T) {
	// Saturated components at a realistic embedding width must not
	// overflow the int32 accumulator: 1024 * 127 * 127 = 16.5M << 2^31.
	n := 1024
	a := make([]int8, n)
	b := make([]int8, n)
	for i := range a {
		a[i], b[i] = 127, 127
	}
	if got, want := DotInt8(a, b), int32(n)*127*127; got != want {
		t.Fatalf("saturated DotInt8 = %d, want %d", got, want)
	}
	for i := range b {
		b[i] = -128
	}
	if got, want := DotInt8(a, b), int32(n)*127*-128; got != want {
		t.Fatalf("mixed-sign DotInt8 = %d, want %d", got, want)
	}
}

func TestDotInt8PanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DotInt8([]int8{1}, []int8{1, 2})
}

func TestCosineWithNorms(t *testing.T) {
	a := []float32{1, 2, 3, 4, 5}
	b := []float32{5, 4, 3, 2, 1}
	if got, want := CosineWithNorms(a, b, Norm(a), Norm(b)), Cosine(a, b); got != want {
		t.Fatalf("CosineWithNorms = %v, Cosine = %v; must be bit-identical", got, want)
	}
	if got := CosineWithNorms(a, b, 0, Norm(b)); got != 0 {
		t.Fatalf("zero-norm CosineWithNorms = %v, want 0", got)
	}
}

func BenchmarkDot(b *testing.B) {
	x := make([]float32, 256)
	y := make([]float32, 256)
	for i := range x {
		x[i] = float32(i) * 0.01
		y[i] = 1 - float32(i)*0.01
	}
	b.ResetTimer()
	var s float32
	for i := 0; i < b.N; i++ {
		s += Dot(x, y)
	}
	_ = s
}

func BenchmarkSquaredL2(b *testing.B) {
	x := make([]float32, 256)
	y := make([]float32, 256)
	for i := range x {
		x[i] = float32(i) * 0.01
		y[i] = 1 - float32(i)*0.01
	}
	b.ResetTimer()
	var s float32
	for i := 0; i < b.N; i++ {
		s += SquaredL2(x, y)
	}
	_ = s
}

func BenchmarkDotInt8(b *testing.B) {
	x := make([]int8, 256)
	y := make([]int8, 256)
	for i := range x {
		x[i] = int8(i - 128)
		y[i] = int8(127 - i)
	}
	b.ResetTimer()
	var s int32
	for i := 0; i < b.N; i++ {
		s += DotInt8(x, y)
	}
	_ = s
}

func TestSquaredL2Properties(t *testing.T) {
	symmetric := func(a, b [8]float32) bool {
		return SquaredL2(a[:], b[:]) == SquaredL2(b[:], a[:])
	}
	if err := quick.Check(symmetric, &quick.Config{MaxCount: 50}); err != nil {
		t.Error("symmetry:", err)
	}
	nonneg := func(a, b [8]float32) bool {
		return SquaredL2(a[:], b[:]) >= 0 || math.IsNaN(float64(SquaredL2(a[:], b[:])))
	}
	if err := quick.Check(nonneg, &quick.Config{MaxCount: 50}); err != nil {
		t.Error("non-negativity:", err)
	}
}
