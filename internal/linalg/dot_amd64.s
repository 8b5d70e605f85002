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

// func dotRows32x8(v, data []float32, rows []types.ItemID, out []float32, n int)
//
// out[k] = dot32x8(v, data[rows[k]*len(v):][:len(v)]) for every k below
// len(rows) whose rows[k] is a row of the n-row matrix in data, and 0 for
// every other k (one unsigned compare: a negative index is a huge one): one
// call walks a whole index list. The caller guarantees n*len(v) <= len(data)
// and len(out) >= len(rows).
TEXT ·dotRows32x8(SB), NOSPLIT, $0-104
	MOVQ v_base+0(FP), SI
	MOVQ v_len+8(FP), CX
	MOVQ data_base+24(FP), R8
	MOVQ rows_base+48(FP), R9
	MOVQ rows_len+56(FP), R10
	MOVQ out_base+72(FP), R11
	MOVQ n+96(FP), R13
	XORQ R12, R12
	DOT32X8_BOUNDS

row:
	CMPQ    R12, R10
	JGE     done
	MOVLQSX (R9)(R12*4), DI
	CMPQ    DI, R13
	JAE     outside
	IMULQ   CX, DI
	LEAQ    (R8)(DI*4), DI
	DOT32X8
	MOVSS   X0, (R11)(R12*4)
	INCQ    R12
	JMP     row

outside:
	MOVL $0, (R11)(R12*4)
	INCQ R12
	JMP  row

done:
	RET

// ADDBASE32_PAIR and ADDBASE32_ONE widen out's float32 scores at AX, two and
// one of them, add the float64 base broadcast in X0 lane by lane (the score
// is the destination, as in the Go loop) and leave the sums in X1; the
// callers add a bias, or not, and narrow. CVTPS2PD, ADDPD and CVTPD2PS are
// CVTSS2SD, ADDSD and CVTSD2SS per lane, rounding by the same MXCSR, so each
// lane carries the bits of the scalar expression (there is no multiply to
// fuse). The conversions bound the loop: taking four scores an iteration
// measured no faster.
#define ADDBASE32_PAIR \
	MOVSD    (DI)(AX*4), X1; \
	CVTPS2PD X1, X1; \
	ADDPD    X0, X1;

#define ADDBASE32_ONE \
	MOVSS    (DI)(AX*4), X1; \
	CVTSS2SD X1, X1; \
	ADDSD    X0, X1;

// func addBase32(out []float32, base float64)
//
// out[k] = float32(base + float64(out[k])) for every k below len(out), two
// lanes at a time, then the odd one.
TEXT ·addBase32(SB), NOSPLIT, $0-32
	MOVQ     out_base+0(FP), DI
	MOVQ     out_len+8(FP), CX
	MOVSD    base+24(FP), X0
	UNPCKLPD X0, X0
	MOVQ     CX, DX
	ANDQ     $-2, DX
	XORQ     AX, AX

pair:
	CMPQ     AX, DX
	JGE      odd
	ADDBASE32_PAIR
	CVTPD2PS X1, X1
	MOVSD    X1, (DI)(AX*4)
	ADDQ     $2, AX
	JMP      pair

odd:
	CMPQ     AX, CX
	JGE      done
	ADDBASE32_ONE
	CVTSD2SS X1, X1
	MOVSS    X1, (DI)(AX*4)

done:
	RET

// func addBaseBias32(out []float32, base float64, bias []float64)
//
// out[k] = float32(base + float64(out[k]) + bias[k]) for every k below
// len(out), two lanes at a time, then the odd one; the sum is taken left to
// right, as the Go loop takes it. The caller guarantees len(bias) >= len(out).
TEXT ·addBaseBias32(SB), NOSPLIT, $0-56
	MOVQ     out_base+0(FP), DI
	MOVQ     out_len+8(FP), CX
	MOVSD    base+24(FP), X0
	MOVQ     bias_base+32(FP), SI
	UNPCKLPD X0, X0
	MOVQ     CX, DX
	ANDQ     $-2, DX
	XORQ     AX, AX

pair:
	CMPQ     AX, DX
	JGE      odd
	ADDBASE32_PAIR
	MOVUPD   (SI)(AX*8), X2
	ADDPD    X2, X1
	CVTPD2PS X1, X1
	MOVSD    X1, (DI)(AX*4)
	ADDQ     $2, AX
	JMP      pair

odd:
	CMPQ     AX, CX
	JGE      done
	ADDBASE32_ONE
	ADDSD    (SI)(AX*8), X1
	CVTSD2SS X1, X1
	MOVSS    X1, (DI)(AX*4)

done:
	RET

// func prefetchRow(row []float64)
//
// PREFETCHT0 on every 64 B line row spans: one hint per 64 bytes from its
// first element, and one on its last byte for the line a start that is not
// 64 B aligned leaves over. A hint never faults, so nothing is checked.
TEXT ·prefetchRow(SB), NOSPLIT, $0-24
	MOVQ  row_base+0(FP), SI
	MOVQ  row_len+8(FP), CX
	TESTQ CX, CX
	JE    done
	LEAQ  (SI)(CX*8), DI
	PREFETCHT0 -1(DI)

line:
	PREFETCHT0 (SI)
	ADDQ  $64, SI
	CMPQ  SI, DI
	JB    line

done:
	RET

// func prefetchLine(p unsafe.Pointer)
//
// PREFETCHT0 on the 64 B line holding p.
TEXT ·prefetchLine(SB), NOSPLIT, $0-8
	MOVQ p+0(FP), SI
	PREFETCHT0 (SI)
	RET

// HEADSTEP(p) adds one head factor's products to the eight four-item sums
// X0–X7 of a chunk: the factor's quad at R12 times the chunk's 32 values at
// p, each product rounded (MULPS) before its sum (ADDPS); then R12 moves to
// the next factor's quad and p to the chunk's next factor. It clobbers
// X8–X12.
#define HEADSTEP(p) \
	MOVUPS (R12), X8; \
	MOVUPS (p), X9; \
	MULPS  X8, X9; \
	ADDPS  X9, X0; \
	MOVUPS 16(p), X10; \
	MULPS  X8, X10; \
	ADDPS  X10, X1; \
	MOVUPS 32(p), X11; \
	MULPS  X8, X11; \
	ADDPS  X11, X2; \
	MOVUPS 48(p), X12; \
	MULPS  X8, X12; \
	ADDPS  X12, X3; \
	MOVUPS 64(p), X9; \
	MULPS  X8, X9; \
	ADDPS  X9, X4; \
	MOVUPS 80(p), X10; \
	MULPS  X8, X10; \
	ADDPS  X10, X5; \
	MOVUPS 96(p), X11; \
	MULPS  X8, X11; \
	ADDPS  X11, X6; \
	MOVUPS 112(p), X12; \
	MULPS  X8, X12; \
	ADDPS  X12, X7; \
	ADDQ   $16, R12; \
	ADDQ   $128, p

// func headBounds32(upper, lower, head, rest, pb, rho []float32, w int, pt, c float32)
//
// For every i below len(upper), h = len(pb)/4, t = rho[i]·pt and Σ the sum
// over the h head factors, in order, of head[headAt(i, f, w)]·pb[4f] for f
// below w and then of rest[headAt(i, f−w, h−w)]·pb[4f]: when lower is
// empty, upper[i] = ((t + Σ) + c); when it is not, s = +0 + Σ, lower[i] =
// ((s − t) − c) and upper[i] = ((s + t) + c). Each lane runs the Go loop's
// operations in its order — MULPS, then ADDPS or SUBPS with the running value
// as destination — each rounded by the MXCSR, so each lane carries the Go
// loop's bits. A chunk of 32 items is eight independent four-item sums (one
// sum waits on its add four cycles a factor) over the chunk's w factors in
// head (SI) and then its DX = h − w in rest (BX), each a contiguous stream
// of values; the items past the last whole chunk go four and then one at a
// time, at the same places in their chunk. pb holds each head factor four
// times over, so a factor is one unaligned load. R8 is lower's base, or 0
// when lower is empty; it picks the mode at each sum's start and end, a
// branch that goes the same way for the whole call. The caller guarantees
// len(rho) >= len(upper), that lower is empty or as long as upper, that
// w <= h, and that head and rest hold the chunks of len(upper) items.
TEXT ·headBounds32(SB), NOSPLIT, $0-160
	MOVQ   upper_base+0(FP), DI
	MOVQ   upper_len+8(FP), CX
	MOVQ   lower_base+24(FP), R8
	MOVQ   lower_len+32(FP), BX
	TESTQ  BX, BX
	JNE    args
	XORQ   R8, R8

args:
	MOVQ   head_base+48(FP), SI
	MOVQ   rest_base+72(FP), BX
	MOVQ   pb_base+96(FP), R9
	MOVQ   w+144(FP), R10       // the head factors in head
	MOVQ   pb_len+104(FP), DX
	SHRQ   $2, DX
	SUBQ   R10, DX              // the head factors in rest
	MOVQ   rho_base+120(FP), R11
	MOVSS  pt+152(FP), X14
	SHUFPS $0x00, X14, X14
	MOVSS  c+156(FP), X15
	SHUFPS $0x00, X15, X15
	XORQ   AX, AX

chunk:
	LEAQ   32(AX), R13
	CMPQ   R13, CX
	JGT    tail
	TESTQ  R8, R8
	JNE    chunkzero
	MOVUPS (R11)(AX*4), X0
	MULPS  X14, X0
	MOVUPS 16(R11)(AX*4), X1
	MULPS  X14, X1
	MOVUPS 32(R11)(AX*4), X2
	MULPS  X14, X2
	MOVUPS 48(R11)(AX*4), X3
	MULPS  X14, X3
	MOVUPS 64(R11)(AX*4), X4
	MULPS  X14, X4
	MOVUPS 80(R11)(AX*4), X5
	MULPS  X14, X5
	MOVUPS 96(R11)(AX*4), X6
	MULPS  X14, X6
	MOVUPS 112(R11)(AX*4), X7
	MULPS  X14, X7
	JMP    chunkgo

chunkzero:
	XORPS  X0, X0
	XORPS  X1, X1
	XORPS  X2, X2
	XORPS  X3, X3
	XORPS  X4, X4
	XORPS  X5, X5
	XORPS  X6, X6
	XORPS  X7, X7

chunkgo:
	MOVQ   R9, R12
	MOVQ   R10, R13

chunkf:
	TESTQ  R13, R13
	JE     chunkrest
	HEADSTEP(SI)
	DECQ   R13
	JMP    chunkf

chunkrest:
	MOVQ   DX, R13

chunkg:
	TESTQ  R13, R13
	JE     chunkdone
	HEADSTEP(BX)
	DECQ   R13
	JMP    chunkg

	// Both rows: each sum s gives s − t − c to lower and becomes s + t.
chunkdone:
	TESTQ  R8, R8
	JE     chunkupper
	MOVUPS (R11)(AX*4), X9
	MULPS  X14, X9
	MOVAPS X0, X10
	SUBPS  X9, X10
	SUBPS  X15, X10
	MOVUPS X10, (R8)(AX*4)
	ADDPS  X9, X0
	MOVUPS 16(R11)(AX*4), X9
	MULPS  X14, X9
	MOVAPS X1, X10
	SUBPS  X9, X10
	SUBPS  X15, X10
	MOVUPS X10, 16(R8)(AX*4)
	ADDPS  X9, X1
	MOVUPS 32(R11)(AX*4), X9
	MULPS  X14, X9
	MOVAPS X2, X10
	SUBPS  X9, X10
	SUBPS  X15, X10
	MOVUPS X10, 32(R8)(AX*4)
	ADDPS  X9, X2
	MOVUPS 48(R11)(AX*4), X9
	MULPS  X14, X9
	MOVAPS X3, X10
	SUBPS  X9, X10
	SUBPS  X15, X10
	MOVUPS X10, 48(R8)(AX*4)
	ADDPS  X9, X3
	MOVUPS 64(R11)(AX*4), X9
	MULPS  X14, X9
	MOVAPS X4, X10
	SUBPS  X9, X10
	SUBPS  X15, X10
	MOVUPS X10, 64(R8)(AX*4)
	ADDPS  X9, X4
	MOVUPS 80(R11)(AX*4), X9
	MULPS  X14, X9
	MOVAPS X5, X10
	SUBPS  X9, X10
	SUBPS  X15, X10
	MOVUPS X10, 80(R8)(AX*4)
	ADDPS  X9, X5
	MOVUPS 96(R11)(AX*4), X9
	MULPS  X14, X9
	MOVAPS X6, X10
	SUBPS  X9, X10
	SUBPS  X15, X10
	MOVUPS X10, 96(R8)(AX*4)
	ADDPS  X9, X6
	MOVUPS 112(R11)(AX*4), X9
	MULPS  X14, X9
	MOVAPS X7, X10
	SUBPS  X9, X10
	SUBPS  X15, X10
	MOVUPS X10, 112(R8)(AX*4)
	ADDPS  X9, X7

chunkupper:
	ADDPS  X15, X0
	MOVUPS X0, (DI)(AX*4)
	ADDPS  X15, X1
	MOVUPS X1, 16(DI)(AX*4)
	ADDPS  X15, X2
	MOVUPS X2, 32(DI)(AX*4)
	ADDPS  X15, X3
	MOVUPS X3, 48(DI)(AX*4)
	ADDPS  X15, X4
	MOVUPS X4, 64(DI)(AX*4)
	ADDPS  X15, X5
	MOVUPS X5, 80(DI)(AX*4)
	ADDPS  X15, X6
	MOVUPS X6, 96(DI)(AX*4)
	ADDPS  X15, X7
	MOVUPS X7, 112(DI)(AX*4)
	ADDQ   $32, AX
	JMP    chunk

	// SI and BX are at the last chunk's head and rest now; they move on
	// with the items, so item AX's factors are at SI and BX, 128 bytes
	// apart.
tail:
four:
	LEAQ   4(AX), R13
	CMPQ   R13, CX
	JGT    one
	MOVUPS (R11)(AX*4), X9
	MULPS  X14, X9              // t
	MOVAPS X9, X0
	TESTQ  R8, R8
	JE     fourgo
	XORPS  X0, X0

fourgo:
	MOVQ   SI, R14
	MOVQ   R9, R12
	MOVQ   R10, R13

fourf:
	TESTQ  R13, R13
	JE     fourrest
	MOVUPS (R12), X2
	MOVUPS (R14), X3
	MULPS  X2, X3
	ADDPS  X3, X0
	ADDQ   $16, R12
	ADDQ   $128, R14
	DECQ   R13
	JMP    fourf

fourrest:
	MOVQ   BX, R14
	MOVQ   DX, R13

fourg:
	TESTQ  R13, R13
	JE     fourdone
	MOVUPS (R12), X2
	MOVUPS (R14), X3
	MULPS  X2, X3
	ADDPS  X3, X0
	ADDQ   $16, R12
	ADDQ   $128, R14
	DECQ   R13
	JMP    fourg

fourdone:
	TESTQ  R8, R8
	JE     fourupper
	MOVAPS X0, X10
	SUBPS  X9, X10
	SUBPS  X15, X10
	MOVUPS X10, (R8)(AX*4)
	ADDPS  X9, X0

fourupper:
	ADDPS  X15, X0
	MOVUPS X0, (DI)(AX*4)
	ADDQ   $4, AX
	ADDQ   $16, SI
	ADDQ   $16, BX
	JMP    four

one:
	CMPQ   AX, CX
	JGE    done
	MOVSS  (R11)(AX*4), X9
	MULSS  X14, X9              // t
	MOVAPS X9, X0
	TESTQ  R8, R8
	JE     onego
	XORPS  X0, X0

onego:
	MOVQ   SI, R14
	MOVQ   R9, R12
	MOVQ   R10, R13

onef:
	TESTQ  R13, R13
	JE     onerest
	MOVSS  (R12), X2
	MOVSS  (R14), X3
	MULSS  X2, X3
	ADDSS  X3, X0
	ADDQ   $16, R12
	ADDQ   $128, R14
	DECQ   R13
	JMP    onef

onerest:
	MOVQ   BX, R14
	MOVQ   DX, R13

oneg:
	TESTQ  R13, R13
	JE     onedone
	MOVSS  (R12), X2
	MOVSS  (R14), X3
	MULSS  X2, X3
	ADDSS  X3, X0
	ADDQ   $16, R12
	ADDQ   $128, R14
	DECQ   R13
	JMP    oneg

onedone:
	TESTQ  R8, R8
	JE     oneupper
	MOVAPS X0, X10
	SUBSS  X9, X10
	SUBSS  X15, X10
	MOVSS  X10, (R8)(AX*4)
	ADDSS  X9, X0

oneupper:
	ADDSS  X15, X0
	MOVSS  X0, (DI)(AX*4)
	INCQ   AX
	ADDQ   $4, SI
	ADDQ   $4, BX
	JMP    one

done:
	RET

// func outsideBand(upper, lower []float32, top, bottom float32, first types.ItemID, out []types.ItemID) int
//
// For every k below len(upper) with !(upper[k] < top) or !(bottom < lower[k]),
// first+k goes to out, in order, and the count is returned: four items at a
// time and then one at a time. CMPPS predicate 5 (not less than) is true on
// unordered operands, so a NaN bound is kept. Few items are expected to leave
// the band, so a quad none of whose items does costs one branch, and one that
// has some stores them one set bit at a time. The caller guarantees
// len(lower) >= len(upper) and len(out) >= len(upper); n never passes the
// item being stored, so every store stays inside out[:len(upper)].
TEXT ·outsideBand(SB), NOSPLIT, $0-96
	MOVQ   upper_base+0(FP), SI
	MOVQ   upper_len+8(FP), CX
	MOVQ   lower_base+24(FP), R13
	MOVSS  top+48(FP), X8
	SHUFPS $0x00, X8, X8
	MOVSS  bottom+52(FP), X9
	SHUFPS $0x00, X9, X9
	MOVL   first+56(FP), R8
	MOVQ   out_base+64(FP), DI
	MOVQ   CX, DX
	ANDQ   $-4, DX
	XORQ   AX, AX
	XORQ   R9, R9           // n

bandquad:
	CMPQ     AX, DX
	JGE      bandtail
	MOVUPS   (SI)(AX*4), X0
	CMPPS    X8, X0, $5     // !(upper < top)
	MOVAPS   X9, X1
	MOVUPS   (R13)(AX*4), X2
	CMPPS    X2, X1, $5     // !(bottom < lower)
	ORPS     X1, X0
	MOVMSKPS X0, BX
	TESTL    BX, BX
	JE       bandnext

bandbits:
	BSFL     BX, R11        // the lowest lane left
	LEAL     (R8)(AX*1), R12
	ADDL     R11, R12
	MOVL     R12, (DI)(R9*4)
	INCQ     R9
	LEAL     -1(BX), R11
	ANDL     R11, BX        // clear it
	JNE      bandbits

bandnext:
	ADDQ     $4, AX
	JMP      bandquad

bandtail:
	CMPQ   AX, CX
	JGE    banddone
	MOVSS  (SI)(AX*4), X0
	CMPSS  X8, X0, $5
	MOVAPS X9, X1
	MOVSS  (R13)(AX*4), X2
	CMPSS  X2, X1, $5
	ORPS   X1, X0
	MOVL   X0, BX
	ANDL   $1, BX
	LEAL   (R8)(AX*1), R11
	MOVL   R11, (DI)(R9*4)
	ADDQ   BX, R9
	INCQ   AX
	JMP    bandtail

banddone:
	MOVQ R9, ret+88(FP)
	RET
