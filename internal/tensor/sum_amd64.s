// Packed-SSE bodies of the convolution sums and of MatMul's row update
// (see the package doc). Every instruction is in the GOAMD64=v1 baseline,
// and none fuses. Each product and sum keeps the operand order of the Go
// bodies in sum_other.go: lane value × scalar (a × src[j] in axpy), then
// accumulator + product. Memory operands use MOVUPS: a [4]float32 is
// only 4-byte aligned. The conv sums check no index (convSums checks the
// largest one before each call); axpy stops at the shorter slice.

#include "textflag.h"

// func convSum(acc *[4]float32, terms []convTerm, s []float32, ss int, v [][4]float32, vs, nb int)
TEXT ·convSum(SB), NOSPLIT, $0-104
	MOVQ   acc+0(FP), DI
	MOVUPS (DI), X0
	MOVQ   terms_base+8(FP), R8
	MOVQ   terms_len+16(FP), R9
	MOVQ   s_base+32(FP), SI
	MOVQ   ss+56(FP), R10
	MOVQ   v_base+64(FP), DX
	MOVQ   vs+88(FP), R11
	MOVQ   nb+96(FP), CX
	TESTQ  R9, R9
	JLE    sumdone
	TESTQ  CX, CX         // nb blocks when nb, ss > 0, as the Go loop
	JLE    sumdone        // so < nb*ss runs; none otherwise
	TESTQ  R10, R10
	JLE    sumdone
	SHLQ   $2, R10        // ss in bytes
	SHLQ   $4, R11        // vs in bytes

sumblock:
	MOVQ R8, BX           // next term
	MOVQ R9, AX           // terms left

sumterm:
	MOVL   (BX), R12      // t.s
	MOVL   4(BX), R13     // t.v
	SHLQ   $4, R13
	MOVSS  (SI)(R12*4), X1
	SHUFPS $0x00, X1, X1  // the scalar in every lane
	MOVUPS (DX)(R13*1), X2
	MULPS  X1, X2         // lane value × scalar
	ADDPS  X2, X0         // accumulator + product
	ADDQ   $8, BX
	DECQ   AX
	JNZ    sumterm
	ADDQ   R10, SI
	ADDQ   R11, DX
	DECQ   CX
	JNZ    sumblock

sumdone:
	MOVUPS X0, (DI)
	RET

// func convSum2(acc, acc2 *[4]float32, terms []convTerm, s []float32, ds, ss int, v [][4]float32, vs, nb int)
TEXT ·convSum2(SB), NOSPLIT, $0-120
	MOVQ   acc+0(FP), DI
	MOVUPS (DI), X0
	MOVQ   acc2+8(FP), DI
	MOVUPS (DI), X1
	MOVQ   terms_base+16(FP), R8
	MOVQ   terms_len+24(FP), R9
	MOVQ   s_base+40(FP), SI
	MOVQ   ds+64(FP), R11
	MOVQ   ss+72(FP), R10
	MOVQ   v_base+80(FP), DX
	MOVQ   vs+104(FP), R12
	MOVQ   nb+112(FP), CX
	TESTQ  R9, R9
	JLE    sum2done
	TESTQ  CX, CX
	JLE    sum2done
	TESTQ  R10, R10
	JLE    sum2done
	LEAQ   (SI)(R11*4), R11 // the second sum's scalars
	SHLQ   $2, R10          // ss in bytes
	SHLQ   $4, R12          // vs in bytes

sum2block:
	MOVQ R8, BX
	MOVQ R9, AX

sum2term:
	MOVL   (BX), R13      // t.s
	MOVL   4(BX), DI      // t.v
	SHLQ   $4, DI
	MOVUPS (DX)(DI*1), X2 // the lanes both sums share
	MOVSS  (SI)(R13*4), X3
	SHUFPS $0x00, X3, X3
	MOVSS  (R11)(R13*4), X4
	SHUFPS $0x00, X4, X4
	MOVUPS X2, X5
	MULPS  X3, X5
	ADDPS  X5, X0
	MULPS  X4, X2
	ADDPS  X2, X1
	ADDQ   $8, BX
	DECQ   AX
	JNZ    sum2term
	ADDQ   R10, SI
	ADDQ   R10, R11
	ADDQ   R12, DX
	DECQ   CX
	JNZ    sum2block

sum2done:
	MOVQ   acc+0(FP), DI
	MOVUPS X0, (DI)
	MOVQ   acc2+8(FP), DI
	MOVUPS X1, (DI)
	RET

// func axpy(dst, src []float32, a float32)
TEXT ·axpy(SB), NOSPLIT, $0-52
	MOVQ   dst_base+0(FP), DI
	MOVQ   dst_len+8(FP), CX
	MOVQ   src_base+24(FP), SI
	MOVQ   src_len+32(FP), AX
	CMPQ   AX, CX
	CMOVQLT AX, CX        // n = min(len(dst), len(src))
	MOVSS  a+48(FP), X0
	SHUFPS $0x00, X0, X0
	CMPQ   CX, $4
	JLT    axpytail

axpyloop:
	MOVUPS (SI), X2
	MOVAPS X0, X1
	MULPS  X2, X1         // a × src
	MOVUPS (DI), X3
	ADDPS  X1, X3         // dst + product
	MOVUPS X3, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	SUBQ   $4, CX
	CMPQ   CX, $4
	JGE    axpyloop

axpytail:
	TESTQ CX, CX
	JLE   axpydone

axpyone:
	MOVSS (SI), X2
	MOVSS X0, X1
	MULSS X2, X1
	MOVSS (DI), X3
	ADDSS X1, X3
	MOVSS X3, (DI)
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  CX
	JNZ   axpyone

axpydone:
	RET
