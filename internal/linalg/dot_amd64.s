//go:build amd64

#include "textflag.h"

// DOT32X8 leaves in the low lane of X0 the float32 dot product of the CX
// elements at SI and the CX elements at DI, given CX rounded down to a
// multiple of 16 in DX and to a multiple of 4 in BX (DOT32X8_BOUNDS); it
// clobbers AX and X1–X11. Main loop: 16 elements per iteration into four
// independent XMM accumulators (MULPS+ADDPS), then a 4-wide loop, then a
// fixed-shape horizontal reduction, then a scalar tail — the same
// deterministic tree for every use with the same length. Both kernels below
// are this one body, so a row scored through either carries the same bits.
// (Labels are local to the TEXT block a macro expands in, so each kernel
// uses it once.)
#define DOT32X8_BOUNDS \
	MOVQ CX, DX; \
	ANDQ $-16, DX; \
	MOVQ CX, BX; \
	ANDQ $-4, BX;

#define DOT32X8 \
	XORPS X0, X0; \
	XORPS X1, X1; \
	XORPS X2, X2; \
	XORPS X3, X3; \
	XORQ  AX, AX; \
	CMPQ  DX, $0; \
	JE    quad; \
loop16: \
	MOVUPS (SI)(AX*4), X4; \
	MOVUPS 16(SI)(AX*4), X5; \
	MOVUPS 32(SI)(AX*4), X6; \
	MOVUPS 48(SI)(AX*4), X7; \
	MOVUPS (DI)(AX*4), X8; \
	MOVUPS 16(DI)(AX*4), X9; \
	MOVUPS 32(DI)(AX*4), X10; \
	MOVUPS 48(DI)(AX*4), X11; \
	MULPS  X8, X4; \
	MULPS  X9, X5; \
	MULPS  X10, X6; \
	MULPS  X11, X7; \
	ADDPS  X4, X0; \
	ADDPS  X5, X1; \
	ADDPS  X6, X2; \
	ADDPS  X7, X3; \
	ADDQ   $16, AX; \
	CMPQ   AX, DX; \
	JL     loop16; \
quad: \
	CMPQ  AX, BX; \
	JGE   reduce; \
loop4: \
	MOVUPS (SI)(AX*4), X4; \
	MOVUPS (DI)(AX*4), X8; \
	MULPS  X8, X4; \
	ADDPS  X4, X0; \
	ADDQ   $4, AX; \
	CMPQ   AX, BX; \
	JL     loop4; \
reduce: \
	ADDPS   X1, X0; \
	ADDPS   X3, X2; \
	ADDPS   X2, X0; \
	MOVAPS  X0, X1; \
	MOVHLPS X0, X1; \
	ADDPS   X1, X0; \
	MOVAPS  X0, X1; \
	SHUFPS  $0x01, X1, X1; \
	ADDSS   X1, X0; \
	CMPQ    AX, CX; \
	JGE     dotdone; \
scalar: \
	MOVSS (SI)(AX*4), X4; \
	MULSS (DI)(AX*4), X4; \
	ADDSS X4, X0; \
	INCQ  AX; \
	CMPQ  AX, CX; \
	JL    scalar; \
dotdone:

// func dot32x8(a, b []float32) float32
//
// Float32 dot product over len(a) elements (caller guarantees
// len(b) >= len(a)).
TEXT ·dot32x8(SB), NOSPLIT, $0-52
	MOVQ  a_base+0(FP), SI
	MOVQ  a_len+8(FP), CX
	MOVQ  b_base+24(FP), DI
	DOT32X8_BOUNDS
	DOT32X8
	MOVSS X0, ret+48(FP)
	RET

// func dotRows32x8(v, data []float32, rows []types.ItemID, out []float32)
//
// out[k] = dot32x8(v, data[rows[k]*len(v):][:len(v)]) for every k below
// len(rows): one call walks a whole index list. The caller guarantees every
// rows[k]*len(v)+len(v) <= len(data) and len(out) >= len(rows).
TEXT ·dotRows32x8(SB), NOSPLIT, $0-96
	MOVQ v_base+0(FP), SI
	MOVQ v_len+8(FP), CX
	MOVQ data_base+24(FP), R8
	MOVQ rows_base+48(FP), R9
	MOVQ rows_len+56(FP), R10
	MOVQ out_base+72(FP), R11
	XORQ R12, R12
	DOT32X8_BOUNDS

row:
	CMPQ    R12, R10
	JGE     done
	MOVLQSX (R9)(R12*4), DI
	IMULQ   CX, DI
	LEAQ    (R8)(DI*4), DI
	DOT32X8
	MOVSS   X0, (R11)(R12*4)
	INCQ    R12
	JMP     row

done:
	RET
