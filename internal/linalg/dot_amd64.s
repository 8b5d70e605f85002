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

// The score epilogues' bodies take four scores at a time: VCVTPS2PD widens
// them, VADDPD adds the float64 base broadcast in Y0 lane by lane (the score
// is the first operand, as in the Go loop) and then, in addBaseBias32AVX, the
// bias, and VCVTPD2PSY narrows the sums. VCVTPS2PD, VADDPD and VCVTPD2PS are
// CVTSS2SD, ADDSD and CVTSD2SS per lane, rounding by the same MXCSR, so each
// lane carries the bits of the scalar expression (there is no multiply to
// fuse); the scores past the last four take those scalar forms one at a time.

// func addBase32AVX(out []float32, base float64)
//
// out[k] = float32(base + float64(out[k])) for every k below len(out).
TEXT ·addBase32AVX(SB), NOSPLIT, $0-32
	MOVQ         out_base+0(FP), DI
	MOVQ         out_len+8(FP), CX
	VBROADCASTSD base+24(FP), Y0
	MOVQ         CX, DX
	ANDQ         $-4, DX
	XORQ         AX, AX

quad:
	CMPQ       AX, DX
	JGE        one
	VCVTPS2PD  (DI)(AX*4), Y1
	VADDPD     Y0, Y1, Y1
	VCVTPD2PSY Y1, X1
	VMOVUPS    X1, (DI)(AX*4)
	ADDQ       $4, AX
	JMP        quad

one:
	CMPQ      AX, CX
	JGE       done
	VMOVSS    (DI)(AX*4), X1
	VCVTSS2SD X1, X1, X1
	VADDSD    X0, X1, X1
	VCVTSD2SS X1, X1, X1
	VMOVSS    X1, (DI)(AX*4)
	INCQ      AX
	JMP       one

done:
	VZEROUPPER
	RET

// func addBaseBias32AVX(out []float32, base float64, bias []float64)
//
// out[k] = float32(base + float64(out[k]) + bias[k]) for every k below
// len(out); the sum is taken left to right, as the Go loop takes it. The
// caller guarantees len(bias) >= len(out).
TEXT ·addBaseBias32AVX(SB), NOSPLIT, $0-56
	MOVQ         out_base+0(FP), DI
	MOVQ         out_len+8(FP), CX
	VBROADCASTSD base+24(FP), Y0
	MOVQ         bias_base+32(FP), SI
	MOVQ         CX, DX
	ANDQ         $-4, DX
	XORQ         AX, AX

quad:
	CMPQ       AX, DX
	JGE        one
	VCVTPS2PD  (DI)(AX*4), Y1
	VADDPD     Y0, Y1, Y1
	VADDPD     (SI)(AX*8), Y1, Y1
	VCVTPD2PSY Y1, X1
	VMOVUPS    X1, (DI)(AX*4)
	ADDQ       $4, AX
	JMP        quad

one:
	CMPQ      AX, CX
	JGE       done
	VMOVSS    (DI)(AX*4), X1
	VCVTSS2SD X1, X1, X1
	VADDSD    X0, X1, X1
	VADDSD    (SI)(AX*8), X1, X1
	VCVTSD2SS X1, X1, X1
	VMOVSS    X1, (DI)(AX*4)
	INCQ      AX
	JMP       one

done:
	VZEROUPPER
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

// HEADSTEP(p) adds one head factor's products to the four eight-item sums
// Y0–Y3 of a chunk: the factor at R12, broadcast, times the chunk's 32 values
// at p, each product rounded (VMULPS) before its sum (VADDPS, the running sum
// the first operand); then R12 moves to the next factor and p to the chunk's
// next factor. It clobbers Y8–Y12.
#define HEADSTEP(p) \
	VBROADCASTSS (R12), Y8; \
	VMULPS       (p), Y8, Y9; \
	VADDPS       Y9, Y0, Y0; \
	VMULPS       32(p), Y8, Y10; \
	VADDPS       Y10, Y1, Y1; \
	VMULPS       64(p), Y8, Y11; \
	VADDPS       Y11, Y2, Y2; \
	VMULPS       96(p), Y8, Y12; \
	VADDPS       Y12, Y3, Y3; \
	ADDQ         $4, R12; \
	ADDQ         $128, p

// func headBounds32AVX(upper, lower, head, rest, pb, rho []float32, w int, pt, c float32)
//
// For every i below len(upper), h = len(pb), t = rho[i]·pt and Σ the sum over
// the h head factors, in order, of head[headAt(i, f, w)]·pb[f] for f below w
// and then of rest[headAt(i, f−w, h−w)]·pb[f]: when lower is empty,
// upper[i] = ((t + Σ) + c); when it is not, s = +0 + Σ, lower[i] =
// ((s − t) − c) and upper[i] = ((s + t) + c). Each lane runs the Go loop's
// operations in its order — VMULPS, then VADDPS or VSUBPS with the running
// value as the first operand — each rounded by the MXCSR, with no multiply
// fused, so each lane carries the Go loop's bits. A chunk of 32 items is four
// independent eight-item sums (HEADSTEP) over the chunk's w factors in head
// (SI) and then its DX = h − w in rest (BX), each a contiguous stream of
// values; the items past the last whole chunk go eight, then four, then one
// at a time, at the same places in their chunk. R8 is lower's base, or 0 when
// lower is empty; it picks the mode at each sum's start and end, a branch
// that goes the same way for the whole call. The caller guarantees
// len(rho) >= len(upper), that lower is empty or as long as upper, that
// w <= h, and that head and rest hold the chunks of len(upper) items.
TEXT ·headBounds32AVX(SB), NOSPLIT, $0-160
	MOVQ         upper_base+0(FP), DI
	MOVQ         upper_len+8(FP), CX
	MOVQ         lower_base+24(FP), R8
	MOVQ         lower_len+32(FP), BX
	TESTQ        BX, BX
	JNE          args
	XORQ         R8, R8

args:
	MOVQ         head_base+48(FP), SI
	MOVQ         rest_base+72(FP), BX
	MOVQ         pb_base+96(FP), R9
	MOVQ         w+144(FP), R10       // the head factors in head
	MOVQ         pb_len+104(FP), DX
	SUBQ         R10, DX              // the head factors in rest
	MOVQ         rho_base+120(FP), R11
	VBROADCASTSS pt+152(FP), Y14
	VBROADCASTSS c+156(FP), Y15
	XORQ         AX, AX

chunk:
	LEAQ   32(AX), R13
	CMPQ   R13, CX
	JGT    eight
	TESTQ  R8, R8
	JNE    chunkzero
	VMULPS (R11)(AX*4), Y14, Y0
	VMULPS 32(R11)(AX*4), Y14, Y1
	VMULPS 64(R11)(AX*4), Y14, Y2
	VMULPS 96(R11)(AX*4), Y14, Y3
	JMP    chunkgo

chunkzero:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

chunkgo:
	MOVQ   R9, R12
	MOVQ   R10, R13
	TESTQ  R13, R13
	JE     chunkrest

chunkf:
	HEADSTEP(SI)
	DECQ   R13
	JNE    chunkf

chunkrest:
	MOVQ   DX, R13
	TESTQ  R13, R13
	JE     chunkdone

chunkg:
	HEADSTEP(BX)
	DECQ   R13
	JNE    chunkg

	// Both rows: each sum s gives s − t − c to lower and becomes s + t.
chunkdone:
	TESTQ   R8, R8
	JE      chunkupper
	VMULPS  (R11)(AX*4), Y14, Y9
	VSUBPS  Y9, Y0, Y10
	VSUBPS  Y15, Y10, Y10
	VMOVUPS Y10, (R8)(AX*4)
	VADDPS  Y9, Y0, Y0
	VMULPS  32(R11)(AX*4), Y14, Y9
	VSUBPS  Y9, Y1, Y10
	VSUBPS  Y15, Y10, Y10
	VMOVUPS Y10, 32(R8)(AX*4)
	VADDPS  Y9, Y1, Y1
	VMULPS  64(R11)(AX*4), Y14, Y9
	VSUBPS  Y9, Y2, Y10
	VSUBPS  Y15, Y10, Y10
	VMOVUPS Y10, 64(R8)(AX*4)
	VADDPS  Y9, Y2, Y2
	VMULPS  96(R11)(AX*4), Y14, Y9
	VSUBPS  Y9, Y3, Y10
	VSUBPS  Y15, Y10, Y10
	VMOVUPS Y10, 96(R8)(AX*4)
	VADDPS  Y9, Y3, Y3

chunkupper:
	VADDPS  Y15, Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	VADDPS  Y15, Y1, Y1
	VMOVUPS Y1, 32(DI)(AX*4)
	VADDPS  Y15, Y2, Y2
	VMOVUPS Y2, 64(DI)(AX*4)
	VADDPS  Y15, Y3, Y3
	VMOVUPS Y3, 96(DI)(AX*4)
	ADDQ    $32, AX
	JMP     chunk

	// SI and BX are at the last chunk's head and rest now; they move on
	// with the items, so item AX's factors are at SI and BX, 128 bytes
	// apart.
eight:
	LEAQ    8(AX), R13
	CMPQ    R13, CX
	JGT     four
	VMULPS  (R11)(AX*4), Y14, Y9 // t
	VMOVAPS Y9, Y0
	TESTQ   R8, R8
	JE      eightgo
	VXORPS  Y0, Y0, Y0

eightgo:
	MOVQ  SI, R14
	MOVQ  R9, R12
	MOVQ  R10, R13
	TESTQ R13, R13
	JE    eightrest

eightf:
	VBROADCASTSS (R12), Y8
	VMULPS       (R14), Y8, Y1
	VADDPS       Y1, Y0, Y0
	ADDQ         $4, R12
	ADDQ         $128, R14
	DECQ         R13
	JNE          eightf

eightrest:
	MOVQ  BX, R14
	MOVQ  DX, R13
	TESTQ R13, R13
	JE    eightdone

eightg:
	VBROADCASTSS (R12), Y8
	VMULPS       (R14), Y8, Y1
	VADDPS       Y1, Y0, Y0
	ADDQ         $4, R12
	ADDQ         $128, R14
	DECQ         R13
	JNE          eightg

eightdone:
	TESTQ   R8, R8
	JE      eightupper
	VSUBPS  Y9, Y0, Y10
	VSUBPS  Y15, Y10, Y10
	VMOVUPS Y10, (R8)(AX*4)
	VADDPS  Y9, Y0, Y0

eightupper:
	VADDPS  Y15, Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	ADDQ    $32, SI
	ADDQ    $32, BX
	JMP     eight

four:
	LEAQ    4(AX), R13
	CMPQ    R13, CX
	JGT     one
	VMULPS  (R11)(AX*4), X14, X9 // t
	VMOVAPS X9, X0
	TESTQ   R8, R8
	JE      fourgo
	VXORPS  X0, X0, X0

fourgo:
	MOVQ  SI, R14
	MOVQ  R9, R12
	MOVQ  R10, R13
	TESTQ R13, R13
	JE    fourrest

fourf:
	VBROADCASTSS (R12), X8
	VMULPS       (R14), X8, X1
	VADDPS       X1, X0, X0
	ADDQ         $4, R12
	ADDQ         $128, R14
	DECQ         R13
	JNE          fourf

fourrest:
	MOVQ  BX, R14
	MOVQ  DX, R13
	TESTQ R13, R13
	JE    fourdone

fourg:
	VBROADCASTSS (R12), X8
	VMULPS       (R14), X8, X1
	VADDPS       X1, X0, X0
	ADDQ         $4, R12
	ADDQ         $128, R14
	DECQ         R13
	JNE          fourg

fourdone:
	TESTQ   R8, R8
	JE      fourupper
	VSUBPS  X9, X0, X10
	VSUBPS  X15, X10, X10
	VMOVUPS X10, (R8)(AX*4)
	VADDPS  X9, X0, X0

fourupper:
	VADDPS  X15, X0, X0
	VMOVUPS X0, (DI)(AX*4)
	ADDQ    $4, AX
	ADDQ    $16, SI
	ADDQ    $16, BX

one:
	CMPQ    AX, CX
	JGE     done
	VMULSS  (R11)(AX*4), X14, X9 // t
	VMOVAPS X9, X0
	TESTQ   R8, R8
	JE      onego
	VXORPS  X0, X0, X0

onego:
	MOVQ  SI, R14
	MOVQ  R9, R12
	MOVQ  R10, R13
	TESTQ R13, R13
	JE    onerest

onef:
	VMOVSS (R12), X8
	VMULSS (R14), X8, X1
	VADDSS X1, X0, X0
	ADDQ   $4, R12
	ADDQ   $128, R14
	DECQ   R13
	JNE    onef

onerest:
	MOVQ  BX, R14
	MOVQ  DX, R13
	TESTQ R13, R13
	JE    onedone

oneg:
	VMOVSS (R12), X8
	VMULSS (R14), X8, X1
	VADDSS X1, X0, X0
	ADDQ   $4, R12
	ADDQ   $128, R14
	DECQ   R13
	JNE    oneg

onedone:
	TESTQ  R8, R8
	JE     oneupper
	VSUBSS X9, X0, X10
	VSUBSS X15, X10, X10
	VMOVSS X10, (R8)(AX*4)
	VADDSS X9, X0, X0

oneupper:
	VADDSS X15, X0, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ   AX
	ADDQ   $4, SI
	ADDQ   $4, BX
	JMP    one

done:
	VZEROUPPER
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

// func cpuAVX() bool
//
// Whether this CPU runs the VEX bodies and its OS keeps their registers:
// CPUID leaf 1 reports OSXSAVE (ECX bit 27) and AVX (bit 28), and XCR0, read
// by XGETBV, has the SSE and YMM state bits (1 and 2) set, so a context
// switch saves the upper halves of the ymm registers.
TEXT ·cpuAVX(SB), NOSPLIT, $0-1
	MOVL   $1, AX
	XORL   CX, CX
	CPUID
	ANDL   $0x18000000, CX
	CMPL   CX, $0x18000000
	JNE    no
	XORL   CX, CX
	XGETBV
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    no
	MOVB   $1, ret+0(FP)
	RET

no:
	MOVB   $0, ret+0(FP)
	RET
