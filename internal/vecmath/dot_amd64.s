//go:build amd64 && !purego

#include "textflag.h"

// func dotInt8AVX2(a, b *int8, n int) int32
//
// The CPUID-gated int8 kernel: 32 int8 products per iteration. Each
// 16-byte half is sign-extended straight to 16×int16 in a YMM register
// (VPMOVSXBW — no unpack/shift dance), VPMADDWD multiplies int16 pairs
// and adds adjacent products into 8×int32 lanes, and the lane sums
// accumulate in Y7. All integer math is exact (|product| ≤ 127², pair
// sums fit int32), so the result is bit-identical to the scalar kernel.
// The reduction folds the high 128 bits onto the low half and then sums
// the four int32 lanes with a PSHUFD ladder; VMOVD keeps the
// extraction VEX-encoded so no SSE instruction runs with dirty YMM upper
// state. The sub-32 tail runs scalar.
TEXT ·dotInt8AVX2(SB), NOSPLIT, $0-28
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	VPXOR Y7, Y7, Y7

loop32:
	CMPQ CX, $32
	JLT  reduce
	VPMOVSXBW (SI), Y0
	VPMOVSXBW (DI), Y2
	VPMADDWD Y2, Y0, Y0
	VPADDD Y0, Y7, Y7
	VPMOVSXBW 16(SI), Y1
	VPMOVSXBW 16(DI), Y3
	VPMADDWD Y3, Y1, Y1
	VPADDD Y1, Y7, Y7
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $32, CX
	JMP  loop32

reduce:
	VEXTRACTI128 $1, Y7, X6
	VPADDD X6, X7, X7
	VPSHUFD $0x4E, X7, X6
	VPADDD X6, X7, X7
	VPSHUFD $0x01, X7, X6
	VPADDD X6, X7, X7
	VMOVD X7, AX

tailloop:
	TESTQ CX, CX
	JEQ   done
	MOVBLSX (SI), R8
	MOVBLSX (DI), R9
	IMULL R9, R8
	ADDL  R8, AX
	INCQ  SI
	INCQ  DI
	DECQ  CX
	JMP   tailloop

done:
	VZEROUPPER
	MOVL AX, ret+24(FP)
	RET

// func dotInt8BatchAVX2(q, arena *int8, stride int, idxs *int32, n, dim int, out *int32)
//
// Batched form of dotInt8AVX2: candidate j lives at arena + idxs[j]*stride
// (stride already in bytes — int8 elements are one byte) and its score
// lands in out[j]. Per-candidate math is identical to the single kernel;
// the batch keeps the query pointer hot and prefetches the next
// candidate's first two cache lines while the current one is scored.
// Requires n > 0 and dim > 0; indices pre-validated by the Go wrapper.
TEXT ·dotInt8BatchAVX2(SB), NOSPLIT, $0-56
	MOVQ q+0(FP), SI
	MOVQ arena+8(FP), DX
	MOVQ stride+16(FP), R8
	MOVQ idxs+24(FP), R9
	MOVQ n+32(FP), R10
	MOVQ dim+40(FP), R11
	MOVQ out+48(FP), R12

outer:
	MOVLQSX (R9), AX
	IMULQ R8, AX
	LEAQ (DX)(AX*1), DI
	CMPQ R10, $2
	JLT  inner
	MOVLQSX 4(R9), BX
	IMULQ R8, BX
	PREFETCHT0 (DX)(BX*1)
	PREFETCHT0 64(DX)(BX*1)

inner:
	MOVQ SI, R13
	MOVQ R11, CX
	VPXOR Y7, Y7, Y7

loop32:
	CMPQ CX, $32
	JLT  reduce
	VPMOVSXBW (R13), Y0
	VPMOVSXBW (DI), Y2
	VPMADDWD Y2, Y0, Y0
	VPADDD Y0, Y7, Y7
	VPMOVSXBW 16(R13), Y1
	VPMOVSXBW 16(DI), Y3
	VPMADDWD Y3, Y1, Y1
	VPADDD Y1, Y7, Y7
	ADDQ $32, R13
	ADDQ $32, DI
	SUBQ $32, CX
	JMP  loop32

reduce:
	VEXTRACTI128 $1, Y7, X6
	VPADDD X6, X7, X7
	VPSHUFD $0x4E, X7, X6
	VPADDD X6, X7, X7
	VPSHUFD $0x01, X7, X6
	VPADDD X6, X7, X7
	VMOVD X7, AX

tailloop:
	TESTQ CX, CX
	JEQ   store
	MOVBLSX (R13), R14
	MOVBLSX (DI), R15
	IMULL R15, R14
	ADDL  R14, AX
	INCQ  R13
	INCQ  DI
	DECQ  CX
	JMP   tailloop

store:
	MOVL AX, (R12)
	ADDQ $4, R12
	ADDQ $4, R9
	DECQ R10
	JNZ  outer
	VZEROUPPER
	RET
