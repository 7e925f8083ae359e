// Package vecmath provides the small float32 vector kernels used by the
// embedder and the HNSW index — dot product, norms, cosine similarity,
// squared Euclidean distance — plus the int8 dot product every HNSW query
// walks the graph with, each in single-pair and batched-arena form.
//
// # Tiers
//
// Every kernel runs on one of three tiers, decided once at init and fixed
// for the life of the process:
//
//   - "avx2" on amd64, when CPUID reports AVX2 and the OS has enabled YMM
//     state (OSXSAVE + XCR0); AVX2 is not in the amd64 baseline and must
//     be feature-detected.
//   - "neon" on arm64, unconditionally — Advanced SIMD is part of the
//     ARMv8-A baseline.
//   - "scalar" everywhere else, under the purego build tag, or when the
//     PNEUMA_FORCE_SCALAR environment variable is set (any non-empty
//     value) — the one way to pin a process to the portable kernels.
//
// The decision is one boolean: the SIMD tier is usable and
// PNEUMA_FORCE_SCALAR is unset. Each public kernel branches on it and
// calls its architecture's kernel directly — no function values, so
// escape analysis sees that no argument outlives the call and vectors in
// stack arrays stay on the stack. The int8 kernels (DotInt8, DotInt8Batch)
// follow the same decision: AVX2 assembly on amd64, the scalar loop on
// every other platform (arm64's NEON tier covers float32 only).
// Tier/Int8Tier report what serves. The package's differential tests call
// every tier this CPU can run directly, so the scalar kernels are proven
// on SIMD machines too.
//
// # Batched arena kernels
//
// DotBatch, SquaredL2Batch and DotInt8Batch score one query against many
// candidates resident in a contiguous arena: candidate j is the window
// arena[idxs[j]*stride : idxs[j]*stride+len(q)], its score lands in
// out[j], and stride (in elements, ≥ len(q)) is the arena's row pitch.
// This is exactly the struct-of-arrays layout the HNSW index stores, so
// traversal hands an adjacency list to the kernel with no copying. The
// SIMD batch kernels run the candidate loop inside the assembly — the
// call overhead is paid once per batch, the query stays hot in
// registers, and the next candidate's leading cache lines are
// software-prefetched while the current one is scored. Batched
// results are bit-identical to a loop of single-kernel calls at every
// length, on every tier: the per-candidate math is the same canonical
// scheme, only the loop around it moves. Malformed batches (short out,
// stride below the query length, an index whose window leaves the arena)
// panic up front, which is what lets the assembly run unchecked loads.
//
// # The determinism contract
//
// Every tier computes the same canonical lane-accumulation scheme: blocks
// of eight elements feed eight independent accumulator lanes (element i
// goes to lane i mod 8), the lanes reduce in the fixed order
// ((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7)), and the sub-block tail is added
// sequentially onto the block sum. No implementation uses FMA: the
// assembly kernels multiply and add in separate instructions, and the
// pure-Go reference wraps each product in an explicit float32 conversion,
// which the language spec defines as a rounding point the compiler may
// not fuse through. The result: Dot, SquaredL2, Norm and CosineWithNorms
// are bit-identical across scalar, AVX2 (one 8-lane register) and NEON
// (two 4-lane registers) at every input length — so search results,
// stored norms and snapshots are portable across machines and across
// PNEUMA_FORCE_SCALAR runs.
//
// The canonical result differs in the last ULP from a naive sequential
// sum, which is why every caller in the repo goes through this package
// rather than hand-rolling a loop.
package vecmath
