package vecmath

import (
	"math/rand"
	"strings"
	"testing"
)

// fillRandInt8 populates int8 slices with the full [-127, 127] range so
// the differential tests hit sign extension on both operands.
func fillRandInt8(rng *rand.Rand, vs ...[]int8) {
	for _, v := range vs {
		for i := range v {
			v[i] = int8(rng.Intn(255) - 127)
		}
	}
}

// rowOf returns candidate ix's window of a packed arena.
func rowOf[T float32 | int8](arena []T, ix int32, dim int) []T {
	return arena[int(ix)*dim : int(ix)*dim+dim]
}

// TestBatchBitIdenticalAllLengths is the batch analogue of
// TestKernelTiersBitIdentical: at every dimension 0..129 (several SIMD
// blocks plus every tail residue) and on every tier this CPU can run —
// each float32 rung and each int8 rung, scalar included whichever tier
// serves — one batched call must agree bit-for-bit with a loop of
// single-kernel calls on the same tier AND with the scalar reference.
// That is the contract hnsw traversal relies on when it swaps
// per-neighbor scoring for one batched call per adjacency list.
func TestBatchBitIdenticalAllLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	const rows = 9
	idxs := []int32{3, 0, 7, 7, 1, 8, 2} // out of order, with a repeat
	for dim := 0; dim <= 129; dim++ {
		q := make([]float32, dim)
		arena := make([]float32, rows*dim)
		fillRand(rng, q, arena[:dim])
		fillRand(rng, arena[dim:(rows/2)*dim+dim], arena[(rows/2)*dim+dim:])
		q8 := make([]int8, dim)
		arena8 := make([]int8, rows*dim)
		fillRandInt8(rng, q8, arena8)
		refDot := make([]float32, len(idxs))
		refL2 := make([]float32, len(idxs))
		ref8 := make([]int32, len(idxs))
		dotBatchScalar(q, arena, dim, idxs, refDot)
		sqL2BatchScalar(q, arena, dim, idxs, refL2)
		dotInt8BatchScalar(q8, arena8, dim, idxs, ref8)

		for _, f := range floatTiers {
			out := make([]float32, len(idxs))
			runBatch(f.dotBatch, q, arena, dim, idxs, out)
			for j, ix := range idxs {
				if single := f.dot(q, rowOf(arena, ix, dim)); out[j] != single {
					t.Fatalf("tier %s dim %d: dotBatch[%d]=%v, single=%v", f.name, dim, j, out[j], single)
				}
				if out[j] != refDot[j] {
					t.Fatalf("tier %s dim %d: dotBatch[%d]=%v, scalar=%v", f.name, dim, j, out[j], refDot[j])
				}
			}
			runBatch(f.sqL2Batch, q, arena, dim, idxs, out)
			for j, ix := range idxs {
				if single := f.sqL2(q, rowOf(arena, ix, dim)); out[j] != single {
					t.Fatalf("tier %s dim %d: sqL2Batch[%d]=%v, single=%v", f.name, dim, j, out[j], single)
				}
				if out[j] != refL2[j] {
					t.Fatalf("tier %s dim %d: sqL2Batch[%d]=%v, scalar=%v", f.name, dim, j, out[j], refL2[j])
				}
			}
		}
		for _, i8 := range int8Tiers {
			out8 := make([]int32, len(idxs))
			runBatch(i8.batch, q8, arena8, dim, idxs, out8)
			for j, ix := range idxs {
				if single := i8.dot(q8, rowOf(arena8, ix, dim)); out8[j] != single {
					t.Fatalf("int8 tier %s dim %d: batch[%d]=%v, single=%v", i8.name, dim, j, out8[j], single)
				}
				if out8[j] != ref8[j] {
					t.Fatalf("int8 tier %s dim %d: batch[%d]=%v, scalar=%v", i8.name, dim, j, out8[j], ref8[j])
				}
			}
		}
	}
}

// TestBatchSizes sweeps the batch-size axis — empty through several SIMD-
// misaligned counts — at a tail-bearing dimension, on every tier and
// through the public entry points. Batch size must never leak into
// per-candidate math, and a batch must leave out untouched beyond
// len(idxs).
func TestBatchSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	const dim, rows = 99, 40
	q := make([]float32, dim)
	arena := make([]float32, rows*dim)
	fillRand(rng, q, arena[:dim])
	fillRand(rng, arena[dim:20*dim], arena[20*dim:])
	q8 := make([]int8, dim)
	arena8 := make([]int8, rows*dim)
	fillRandInt8(rng, q8, arena8)

	for _, size := range []int{0, 1, 2, 7, 8, 33} {
		idxs := make([]int32, size)
		for j := range idxs {
			idxs[j] = int32(rng.Intn(rows))
		}
		refDot := make([]float32, size)
		refL2 := make([]float32, size)
		ref8 := make([]int32, size)
		dotBatchScalar(q, arena, dim, idxs, refDot)
		sqL2BatchScalar(q, arena, dim, idxs, refL2)
		dotInt8BatchScalar(q8, arena8, dim, idxs, ref8)

		for _, f := range floatTiers {
			out := sentinelOut[float32](size)
			runBatch(f.dotBatch, q, arena, dim, idxs, out)
			checkOut(t, f.name+" dotBatch", out, refDot)
			out = sentinelOut[float32](size)
			runBatch(f.sqL2Batch, q, arena, dim, idxs, out)
			checkOut(t, f.name+" sqL2Batch", out, refL2)
		}
		for _, i8 := range int8Tiers {
			out8 := sentinelOut[int32](size)
			runBatch(i8.batch, q8, arena8, dim, idxs, out8)
			checkOut(t, i8.name+" int8 batch", out8, ref8)
		}
		out := sentinelOut[float32](size)
		DotBatch(q, arena, dim, idxs, out)
		checkOut(t, "DotBatch", out, refDot)
		out = sentinelOut[float32](size)
		SquaredL2Batch(q, arena, dim, idxs, out)
		checkOut(t, "SquaredL2Batch", out, refL2)
		out8 := sentinelOut[int32](size)
		DotInt8Batch(q8, arena8, dim, idxs, out8)
		checkOut(t, "DotInt8Batch", out8, ref8)
	}
}

// sentinelOut returns an output buffer one slot longer than the batch,
// with a sentinel in the extra slot.
func sentinelOut[O float32 | int32](size int) []O {
	out := make([]O, size+1)
	out[size] = 12345
	return out
}

// checkOut compares a batch's output with the reference and checks the
// sentinel past the batch survived.
func checkOut[O float32 | int32](t *testing.T, label string, out, ref []O) {
	t.Helper()
	size := len(ref)
	for j := range ref {
		if out[j] != ref[j] {
			t.Fatalf("%s size %d: [%d]=%v, want %v", label, size, j, out[j], ref[j])
		}
	}
	if out[size] != 12345 {
		t.Fatalf("%s size %d: batch wrote past len(idxs): out[%d]=%v", label, size, size, out[size])
	}
}

// TestBatchOddOffsetsAndStride re-runs the differential check on every
// tier with an arena sliced at odd element offsets into a shared backing
// array and with a stride wider than the query (padded rows): the kernels
// use unaligned loads and must honor stride exactly, never reading row
// padding into a score. Offsets 1, 3 and 5 break 32-, 16- and 8-byte
// alignment.
func TestBatchOddOffsetsAndStride(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	const dim, pad, rows = 67, 5, 12
	stride := dim + pad
	back := make([]float32, rows*stride+8)
	for i := range back {
		back[i] = float32(rng.NormFloat64())
	}
	back8 := make([]int8, rows*stride+8)
	fillRandInt8(rng, back8)
	q := make([]float32, dim)
	q8 := make([]int8, dim)
	fillRand(rng, q, q)
	fillRandInt8(rng, q8)
	idxs := []int32{0, 11, 5, 5, 2, 9, 1, 7}

	for _, off := range []int{1, 3, 5} {
		arena := back[off : off+rows*stride]
		arena8 := back8[off : off+rows*stride]
		refDot := make([]float32, len(idxs))
		refL2 := make([]float32, len(idxs))
		ref8 := make([]int32, len(idxs))
		dotBatchScalar(q, arena, stride, idxs, refDot)
		sqL2BatchScalar(q, arena, stride, idxs, refL2)
		dotInt8BatchScalar(q8, arena8, stride, idxs, ref8)
		for _, f := range floatTiers {
			out := make([]float32, len(idxs))
			runBatch(f.dotBatch, q, arena, stride, idxs, out)
			for j := range idxs {
				if out[j] != refDot[j] {
					t.Fatalf("tier %s off %d: dotBatch[%d]=%v, want %v", f.name, off, j, out[j], refDot[j])
				}
			}
			runBatch(f.sqL2Batch, q, arena, stride, idxs, out)
			for j := range idxs {
				if out[j] != refL2[j] {
					t.Fatalf("tier %s off %d: sqL2Batch[%d]=%v, want %v", f.name, off, j, out[j], refL2[j])
				}
			}
		}
		for _, i8 := range int8Tiers {
			out8 := make([]int32, len(idxs))
			runBatch(i8.batch, q8, arena8, stride, idxs, out8)
			for j := range idxs {
				if out8[j] != ref8[j] {
					t.Fatalf("int8 tier %s off %d: batch[%d]=%v, want %v", i8.name, off, j, out8[j], ref8[j])
				}
			}
		}
	}
}

// TestBatchValidation pins the checkBatch contract: a short output, a
// stride below the query length, and an index whose window leaves the
// arena must all panic before any kernel runs — that validation is what
// lets the assembly kernels execute raw unchecked loads.
func TestBatchValidation(t *testing.T) {
	q := make([]float32, 8)
	arena := make([]float32, 4*8)
	mustPanic := func(name, wantSub string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: expected panic", name)
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, wantSub) {
				t.Fatalf("%s: panic %v, want substring %q", name, r, wantSub)
			}
		}()
		fn()
	}
	mustPanic("short out", "output shorter", func() {
		DotBatch(q, arena, 8, []int32{0, 1}, make([]float32, 1))
	})
	mustPanic("narrow stride", "stride below", func() {
		SquaredL2Batch(q, arena, 7, []int32{0}, make([]float32, 1))
	})
	mustPanic("index past arena", "outside arena", func() {
		DotBatch(q, arena, 8, []int32{4}, make([]float32, 1))
	})
	mustPanic("negative index", "outside arena", func() {
		DotBatch(q, arena, 8, []int32{-1}, make([]float32, 1))
	})
	mustPanic("int8 index past arena", "outside arena", func() {
		DotInt8Batch(make([]int8, 8), make([]int8, 32), 8, []int32{4}, make([]int32, 1))
	})
}
