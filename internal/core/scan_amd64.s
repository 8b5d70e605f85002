//go:build amd64

#include "textflag.h"

// func scanGains(raw, cov []float32, min, scale, theta, bar float32) int
//
// The position of the first k below len(raw) whose gain
//
//	(1−θ)·clamp((raw[k]−min)·scale, 0, 1) + θ·cov[k]
//
// is not below bar, len(raw) when there is none: gainScanGeneric over the map
// (raw−min)·scale, four candidates at a time and then one at a time. The
// caller guarantees len(cov) >= len(raw). Each lane runs the Go expression's
// operations in its order, each rounded to float32 by the same MXCSR — no
// FMA, no reassociation — so each lane's gain is gainOf's value:
//   - the clamp is MAXPS with the zero as destination, (0 > v) ? 0 : v, then
//     MINPS with the one as destination, (1 < w) ? 1 : w. Each returns its
//     source when the compare is false, so a NaN stays a NaN and a −0 stays a
//     −0, as MinMax.At's `v < 0` and `v > 1` branches leave them;
//   - CMPPS predicate 5 (not less than) is true when the operands are
//     unordered, so it is the walk's !(g < bar): a NaN gain and a tie are
//     offered.
TEXT ·scanGains(SB), NOSPLIT, $0-72
	MOVQ   raw_base+0(FP), SI
	MOVQ   raw_len+8(FP), CX
	MOVQ   cov_base+24(FP), DI
	MOVSS  min+48(FP), X8
	SHUFPS $0x00, X8, X8
	MOVSS  scale+52(FP), X9
	SHUFPS $0x00, X9, X9
	MOVSS  theta+56(FP), X10
	SHUFPS $0x00, X10, X10
	MOVSS  bar+60(FP), X12
	SHUFPS $0x00, X12, X12
	MOVL   $0x3f800000, AX  // 1.0
	MOVL   AX, X13
	SHUFPS $0x00, X13, X13
	MOVAPS X13, X11
	SUBPS  X10, X11         // 1−θ
	MOVQ   CX, DX
	ANDQ   $-4, DX
	XORQ   AX, AX

quad:
	CMPQ     AX, DX
	JGE      tail
	MOVUPS   (SI)(AX*4), X0
	SUBPS    X8, X0         // raw−min
	MULPS    X9, X0         // ·scale
	XORPS    X1, X1
	MAXPS    X0, X1         // (0 > v) ? 0 : v
	MOVAPS   X13, X2
	MINPS    X1, X2         // (1 < w) ? 1 : w, a(i)
	MULPS    X11, X2        // (1−θ)·a(i)
	MOVUPS   (DI)(AX*4), X3
	MULPS    X10, X3        // θ·c(i)
	ADDPS    X3, X2         // the gain
	CMPPS    X12, X2, $5    // !(gain < bar)
	MOVMSKPS X2, BX
	TESTL    BX, BX
	JNE      found
	ADDQ     $4, AX
	JMP      quad

found:
	BSFL BX, BX             // the first lane that reached the bar
	ADDQ BX, AX
	MOVQ AX, ret+64(FP)
	RET

tail:
	CMPQ   AX, CX
	JGE    none
	MOVSS  (SI)(AX*4), X0
	SUBSS  X8, X0
	MULSS  X9, X0
	XORPS  X1, X1
	MAXSS  X0, X1
	MOVAPS X13, X2
	MINSS  X1, X2
	MULSS  X11, X2
	MOVSS  (DI)(AX*4), X3
	MULSS  X10, X3
	ADDSS  X3, X2
	CMPSS  X12, X2, $5
	MOVL   X2, BX
	TESTL  BX, BX
	JNE    reached
	INCQ   AX
	JMP    tail

reached:
	MOVQ AX, ret+64(FP)
	RET

none:
	MOVQ CX, ret+64(FP)
	RET
