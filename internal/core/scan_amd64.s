//go:build amd64

#include "textflag.h"

// func scanGains(raw, cov []float32, min, scale, theta, bar float32, first types.ItemID, out []types.ItemID, sparse bool) int
//
// For every k below len(raw) whose gain
//
//	(1−θ)·clamp((raw[k]−min)·scale, 0, 1) + θ·cov[k]
//
// is not below bar, first+k goes to out, in order, and the count is
// returned: gainScanGeneric over the map (raw−min)·scale, four items at a
// time and then one at a time. The caller guarantees len(cov) >= len(raw)
// and len(out) >= len(raw). Each lane runs the Go expression's operations in
// its order, each rounded to float32 by the same MXCSR — no FMA, no
// reassociation — so each lane's gain is gainOf's value:
//   - the clamp is MAXPS with the zero as destination, (0 > v) ? 0 : v, then
//     MINPS with the one as destination, (1 < w) ? 1 : w. Each returns its
//     source when the compare is false, so a NaN stays a NaN and a −0 stays a
//     −0, as MinMax.At's `v < 0` and `v > 1` branches leave them;
//   - CMPPS predicate 5 (not less than) is true when the operands are
//     unordered, so it is the walk's !(g < bar): a NaN gain and a tie are
//     kept.
//
// The compress has no branch on the lanes: the 4-bit mask of the quad picks a
// row of compressLanes, the lanes that reached the bar in order, which added
// to the quad's items is stored at out[n] whole, and n moves on by its row of
// compressCounts; the lanes past the count are overwritten by the next
// quad. n never passes the quad's first item, so the store stays inside
// out[:len(raw)]. When sparse is set, a quad none of whose gains reaches the
// bar stores nothing: a branch that costs a misprediction on a quad that
// keeps some and saves the stores on one that keeps none, so it pays only
// where few items are kept.
TEXT ·scanGains(SB), NOSPLIT, $0-112
	MOVQ   raw_base+0(FP), SI
	MOVQ   raw_len+8(FP), CX
	MOVQ   cov_base+24(FP), R13
	MOVSS  min+48(FP), X8
	SHUFPS $0x00, X8, X8
	MOVSS  scale+52(FP), X9
	SHUFPS $0x00, X9, X9
	MOVSS  theta+56(FP), X10
	SHUFPS $0x00, X10, X10
	MOVSS  bar+60(FP), X12
	SHUFPS $0x00, X12, X12
	MOVL   first+64(FP), R8
	MOVQ   out_base+72(FP), DI
	MOVBLZX sparse+96(FP), R14
	MOVL   $0x3f800000, AX  // 1.0
	MOVL   AX, X13
	SHUFPS $0x00, X13, X13
	MOVAPS X13, X11
	SUBPS  X10, X11         // 1−θ
	MOVL   R8, X5
	PSHUFD $0x00, X5, X5    // first, four times
	MOVL   $4, R11
	MOVL   R11, X6
	PSHUFD $0x00, X6, X6
	LEAQ   ·compressLanes(SB), R12
	LEAQ   ·compressCounts(SB), R10
	MOVQ   CX, DX
	ANDQ   $-4, DX
	XORQ   AX, AX
	XORQ   R9, R9           // n

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
	MOVUPS   (R13)(AX*4), X3
	MULPS    X10, X3        // θ·c(i)
	ADDPS    X3, X2         // the gain
	CMPPS    X12, X2, $5    // !(gain < bar)
	MOVMSKPS X2, BX
	TESTL    R14, R14
	JE       compress
	TESTL    BX, BX
	JE       next

compress:
	MOVQ     BX, R11
	SHLQ     $4, R11
	MOVOU    (R12)(R11*1), X4  // the mask's lanes, in order
	PADDL    X5, X4            // their items
	MOVOU    X4, (DI)(R9*4)
	MOVBLZX  (R10)(BX*1), R11  // how many
	ADDQ     R11, R9

next:
	PADDL    X6, X5
	ADDQ     $4, AX
	JMP      quad

tail:
	CMPQ   AX, CX
	JGE    done
	MOVSS  (SI)(AX*4), X0
	SUBSS  X8, X0
	MULSS  X9, X0
	XORPS  X1, X1
	MAXSS  X0, X1
	MOVAPS X13, X2
	MINSS  X1, X2
	MULSS  X11, X2
	MOVSS  (R13)(AX*4), X3
	MULSS  X10, X3
	ADDSS  X3, X2
	CMPSS  X12, X2, $5
	MOVL   X2, BX
	ANDL   $1, BX
	LEAL   (R8)(AX*1), R11
	MOVL   R11, (DI)(R9*4)
	ADDQ   BX, R9
	INCQ   AX
	JMP    tail

done:
	MOVQ R9, ret+104(FP)
	RET
