//go:build amd64

#include "textflag.h"

// func dot32x8(a, b []float32) float32
//
// Float32 dot product over len(a) elements (caller guarantees
// len(b) >= len(a)). Main loop: 16 elements per iteration into four
// independent XMM accumulators (MULPS+ADDPS), then a 4-wide loop, then a
// scalar tail, then a fixed-shape horizontal reduction — the same
// deterministic tree for every call with the same length.
TEXT ·dot32x8(SB), NOSPLIT, $0-52
	MOVQ  a_base+0(FP), SI
	MOVQ  a_len+8(FP), CX
	MOVQ  b_base+24(FP), DI
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORQ  AX, AX
	MOVQ  CX, DX
	ANDQ  $-16, DX
	CMPQ  DX, $0
	JE    quad

loop16:
	MOVUPS (SI)(AX*4), X4
	MOVUPS 16(SI)(AX*4), X5
	MOVUPS 32(SI)(AX*4), X6
	MOVUPS 48(SI)(AX*4), X7
	MOVUPS (DI)(AX*4), X8
	MOVUPS 16(DI)(AX*4), X9
	MOVUPS 32(DI)(AX*4), X10
	MOVUPS 48(DI)(AX*4), X11
	MULPS  X8, X4
	MULPS  X9, X5
	MULPS  X10, X6
	MULPS  X11, X7
	ADDPS  X4, X0
	ADDPS  X5, X1
	ADDPS  X6, X2
	ADDPS  X7, X3
	ADDQ   $16, AX
	CMPQ   AX, DX
	JL     loop16

quad:
	MOVQ  CX, DX
	ANDQ  $-4, DX
	CMPQ  AX, DX
	JGE   reduce

loop4:
	MOVUPS (SI)(AX*4), X4
	MOVUPS (DI)(AX*4), X8
	MULPS  X8, X4
	ADDPS  X4, X0
	ADDQ   $4, AX
	CMPQ   AX, DX
	JL     loop4

reduce:
	ADDPS   X1, X0
	ADDPS   X3, X2
	ADDPS   X2, X0
	MOVAPS  X0, X1
	MOVHLPS X0, X1               // X1 low pair = X0 high pair
	ADDPS   X1, X0
	MOVAPS  X0, X1
	SHUFPS  $0x01, X1, X1        // X1 lane0 = X0 lane1
	ADDSS   X1, X0
	CMPQ    AX, CX
	JGE     done

scalar:
	MOVSS (SI)(AX*4), X4
	MULSS (DI)(AX*4), X4
	ADDSS X4, X0
	INCQ  AX
	CMPQ  AX, CX
	JL    scalar

done:
	MOVSS X0, ret+48(FP)
	RET
