//go:build amd64

#include "textflag.h"

// Every kernel here is one AVX-512F body, which runs only where cpuAVX512
// selected it; elsewhere the Go twin in dot_amd64.go runs instead. Each lane
// runs its twin's operations in the twin's order — the row kernel's, its own
// sum tree's (DOT16) — each rounded by the same MXCSR, with no multiply fused
// into an add, so a lane carries the bits the twin computes. The rows' ends
// are masked loads and stores (K registers), which neither read nor write a
// masked-out element, so no kernel has a narrower tail loop. Only AVX512F
// and POPCNT instructions are used (a 256-bit form with a mask would need
// AVX512VL), so every masked load and store is 512 bits wide.

// TAILMASK(r, m) sets m to the r low bits, r < 64: BTS sets bit r of a zero,
// and the decrement leaves the bits below it.
#define TAILMASK(r, m) \
	XORQ m, m; \
	BTSQ r, m; \
	DECQ m

// DOT16 leaves in the low lane of X0 the float32 dot product of the CX
// elements at SI and the CX elements at DI, given CX rounded down to a
// multiple of 16 in DX and to a multiple of 4 in BX, and 0xF in K1; it
// clobbers AX and X1–X4. It is the sum tree of four four-lane accumulators,
// lane m of the 16 taking the elements ≡ m (mod 16), kept in the 16 lanes of
// Z0: 16 elements an iteration; then each whole quad left, added to lanes
// 0–3 alone, merge-masked, so lanes 4–15 run no add the tree does not have;
// then (0–3 + 4–7) + (8–11 + 12–15), then lanes (0 + 2) + (1 + 3), then the
// elements past the last quad one at a time. Both kernels below are this
// one body, so a row scored through either carries the same bits. (Labels are
// local to the TEXT block a macro expands in, so each kernel uses it once.)
#define DOT16 \
	VPXORD Z0, Z0, Z0; \
	XORQ   AX, AX; \
	CMPQ   DX, $0; \
	JE     quad; \
loop16: \
	VMOVUPS (SI)(AX*4), Z4; \
	VMULPS  (DI)(AX*4), Z4, Z4; \
	VADDPS  Z4, Z0, Z0; \
	ADDQ    $16, AX; \
	CMPQ    AX, DX; \
	JL      loop16; \
quad: \
	CMPQ AX, BX; \
	JGE  reduce; \
loop4: \
	VMOVUPS (SI)(AX*4), X4; \
	VMULPS  (DI)(AX*4), X4, X4; \
	VADDPS  Z4, Z0, K1, Z0; \
	ADDQ    $4, AX; \
	CMPQ    AX, BX; \
	JL      loop4; \
reduce: \
	VEXTRACTF64X4 $1, Z0, Y2; \
	VEXTRACTF128  $1, Y0, X1; \
	VEXTRACTF128  $1, Y2, X3; \
	VADDPS        X1, X0, X0; \
	VADDPS        X3, X2, X2; \
	VADDPS        X2, X0, X0; \
	VMOVHLPS      X0, X0, X1; \
	VADDPS        X1, X0, X0; \
	VMOVSHDUP     X0, X1; \
	VADDSS        X1, X0, X0; \
	CMPQ          AX, CX; \
	JGE           dotdone; \
scalar: \
	VMOVSS (SI)(AX*4), X4; \
	VMULSS (DI)(AX*4), X4, X4; \
	VADDSS X4, X0, X0; \
	INCQ   AX; \
	CMPQ   AX, CX; \
	JL     scalar; \
dotdone:

#define DOT16_SETUP \
	MOVQ  CX, DX; \
	ANDQ  $-16, DX; \
	MOVQ  CX, BX; \
	ANDQ  $-4, BX; \
	MOVL  $0xF, AX; \
	KMOVW AX, K1

// func dot32x8AVX512(a, b []float32) float32
//
// Float32 dot product over len(a) elements (caller guarantees
// len(b) >= len(a)).
TEXT ·dot32x8AVX512(SB), NOSPLIT, $0-52
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b_base+24(FP), DI
	DOT16_SETUP
	DOT16
	VMOVSS X0, ret+48(FP)
	VZEROUPPER
	RET

// func dotRows32x8AVX512(v, data []float32, rows []types.ItemID, out []float32, n int)
//
// out[k] = dot32x8AVX512(v, data[rows[k]*len(v):][:len(v)]) for every k
// below len(rows) whose rows[k] is a row of the n-row matrix in data, and 0
// for every other k (one unsigned compare: a negative index is a huge one):
// one call walks a whole index list. The caller guarantees
// n*len(v) <= len(data) and len(out) >= len(rows).
TEXT ·dotRows32x8AVX512(SB), NOSPLIT, $0-104
	MOVQ v_base+0(FP), SI
	MOVQ v_len+8(FP), CX
	MOVQ data_base+24(FP), R8
	MOVQ rows_base+48(FP), R9
	MOVQ rows_len+56(FP), R10
	MOVQ out_base+72(FP), R11
	MOVQ n+96(FP), R13
	XORQ R12, R12
	DOT16_SETUP

row:
	CMPQ    R12, R10
	JGE     done
	MOVLQSX (R9)(R12*4), DI
	CMPQ    DI, R13
	JAE     outside
	IMULQ   CX, DI
	LEAQ    (R8)(DI*4), DI
	DOT16
	VMOVSS  X0, (R11)(R12*4)
	INCQ    R12
	JMP     row

outside:
	MOVL $0, (R11)(R12*4)
	INCQ R12
	JMP  row

done:
	VZEROUPPER
	RET

// The score epilogues take 16 scores an iteration, as two eight-lane halves:
// VCVTPS2PD widens a half, VADDPD adds the float64 base broadcast in Z0 lane
// by lane (the score is the first operand, as in the Go loop) and then, in
// addBaseBias32AVX512, the bias, and VCVTPD2PS narrows the sums. VCVTPS2PD,
// VADDPD and VCVTPD2PS are CVTSS2SD, ADDSD and CVTSD2SS per lane, rounding by
// the same MXCSR, so each lane carries the bits of the scalar expression
// (there is no multiply to fuse). The halves are joined and stored as one
// 16-lane register, so that no store covers scores the next iteration loads.
// K1 and K2 hold each half's lanes and K3 all 16: every lane until fewer than
// 16 scores are left, then the last ones'.

// EPIMASKS sets K1, K2 and K3 to the lanes of the 16 scores at AX, out of CX,
// and jumps to done when none is left; it clobbers R12 and R13.
#define EPIMASKS \
	MOVQ    CX, R13; \
	SUBQ    AX, R13; \
	CMPQ    R13, $16; \
	JGE     body; \
	TESTQ   R13, R13; \
	JLE     done; \
	TAILMASK(R13, R12); \
	KMOVW   R12, K3; \
	KMOVW   R12, K1; \
	SHRL    $8, R12; \
	KMOVW   R12, K2

// EPISETUP sets K1 and K2 to eight lanes and K3 to 16; it clobbers AX.
#define EPISETUP \
	MOVL  $0xFF, AX; \
	KMOVW AX, K1; \
	KMOVW AX, K2; \
	MOVL  $0xFFFF, AX; \
	KMOVW AX, K3

// func addBase32AVX512(out []float32, base float64)
//
// out[k] = float32(base + float64(out[k])) for every k below len(out).
TEXT ·addBase32AVX512(SB), NOSPLIT, $0-32
	MOVQ         out_base+0(FP), DI
	MOVQ         out_len+8(FP), CX
	VBROADCASTSD base+24(FP), Z0
	EPISETUP
	XORQ         AX, AX

loop:
	EPIMASKS

body:
	VCVTPS2PD.Z  (DI)(AX*4), K1, Z1
	VCVTPS2PD.Z  32(DI)(AX*4), K2, Z2
	VADDPD       Z0, Z1, Z1
	VADDPD       Z0, Z2, Z2
	VCVTPD2PS    Z1, Y1
	VCVTPD2PS    Z2, Y2
	VINSERTF64X4 $1, Y2, Z1, Z1
	VMOVUPS      Z1, K3, (DI)(AX*4)
	ADDQ         $16, AX
	JMP          loop

done:
	VZEROUPPER
	RET

// func addBaseBias32AVX512(out []float32, base float64, bias []float64)
//
// out[k] = float32(base + float64(out[k]) + bias[k]) for every k below
// len(out); the sum is taken left to right, as the Go loop takes it. The
// caller guarantees len(bias) >= len(out).
TEXT ·addBaseBias32AVX512(SB), NOSPLIT, $0-56
	MOVQ         out_base+0(FP), DI
	MOVQ         out_len+8(FP), CX
	VBROADCASTSD base+24(FP), Z0
	MOVQ         bias_base+32(FP), SI
	EPISETUP
	XORQ         AX, AX

loop:
	EPIMASKS

body:
	VCVTPS2PD.Z  (DI)(AX*4), K1, Z1
	VCVTPS2PD.Z  32(DI)(AX*4), K2, Z2
	VADDPD       Z0, Z1, Z1
	VADDPD       Z0, Z2, Z2
	VADDPD.Z     (SI)(AX*8), Z1, K1, Z1
	VADDPD.Z     64(SI)(AX*8), Z2, K2, Z2
	VCVTPD2PS    Z1, Y1
	VCVTPD2PS    Z2, Y2
	VINSERTF64X4 $1, Y2, Z1, Z1
	VMOVUPS      Z1, K3, (DI)(AX*4)
	ADDQ         $16, AX
	JMP          loop

done:
	VZEROUPPER
	RET

// func prefetchRow(row []float64)
//
// PREFETCHT0 on every 64 B line row spans: one hint per 64 bytes from its
// first element, and one on its last byte for the line a start that is not
// 64 B aligned leaves over. A hint never faults, so nothing is checked.
// PREFETCHT0 is part of the amd64 baseline, so it needs no CPU check.
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

// HEADSTEP(p) adds one head factor's products to the two 16-item sums Z0 and
// Z1 of a chunk: the factor at R12, broadcast, times the chunk's 32 values at
// p, each product rounded (VMULPS) before its sum (VADDPS, the running sum
// the first operand); then R12 moves to the next factor and p to the chunk's
// next factor. K1 and K2 hold the chunk's items, so a short last chunk reads
// no value past its own. It clobbers Z8–Z10.
#define HEADSTEP(p) \
	VBROADCASTSS (R12), Z8; \
	VMULPS.Z     (p), Z8, K1, Z9; \
	VADDPS       Z9, Z0, Z0; \
	VMULPS.Z     64(p), Z8, K2, Z10; \
	VADDPS       Z10, Z1, Z1; \
	ADDQ         $4, R12; \
	ADDQ         $128, p

// func headBounds32AVX512(upper, lower, head, rest, pb, rho []float32, w int, pt, c float32)
//
// For every i below len(upper), h = len(pb), t = rho[i]·pt and Σ the sum over
// the h head factors, in order, of head[headAt(i, f, w)]·pb[f] for f below w
// and then of rest[headAt(i, f−w, h−w)]·pb[f]: when lower is empty,
// upper[i] = ((t + Σ) + c); when it is not, s = +0 + Σ, lower[i] =
// ((s − t) − c) and upper[i] = ((s + t) + c). Each lane runs the Go loop's
// operations in its order — VMULPS, then VADDPS or VSUBPS with the running
// value as the first operand. A chunk of 32 items is two independent 16-item
// sums (HEADSTEP) over the chunk's w factors in head (SI) and then its
// DX = h − w in rest (BX), each a contiguous stream of values; the last
// chunk, which may be short, is the same body under the masks K1 and K2 of
// its items, at the same places in the layout. R8 is lower's base, or 0 when
// lower is empty; it picks the mode at each sum's start and end, a branch
// that goes the same way for the whole call. The caller guarantees
// len(rho) >= len(upper), that lower is empty or as long as upper, that
// w <= h, and that head and rest hold the chunks of len(upper) items.
TEXT ·headBounds32AVX512(SB), NOSPLIT, $0-160
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
	VBROADCASTSS pt+152(FP), Z14
	VBROADCASTSS c+156(FP), Z15
	MOVL         $0xFFFF, AX
	KMOVW        AX, K1
	KMOVW        AX, K2
	XORQ         AX, AX

chunk:
	MOVQ   CX, R13
	SUBQ   AX, R13
	CMPQ   R13, $32
	JGE    chunkgo
	TESTQ  R13, R13
	JLE    done
	TAILMASK(R13, R12)
	KMOVW  R12, K1
	SHRL   $16, R12
	KMOVW  R12, K2

chunkgo:
	TESTQ      R8, R8
	JNE        chunkzero
	VMULPS.Z   (R11)(AX*4), Z14, K1, Z0
	VMULPS.Z   64(R11)(AX*4), Z14, K2, Z1
	JMP        chunkfactors

chunkzero:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1

chunkfactors:
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
	TESTQ    R8, R8
	JE       chunkupper
	VMULPS.Z (R11)(AX*4), Z14, K1, Z9
	VSUBPS   Z9, Z0, Z10
	VSUBPS   Z15, Z10, Z10
	VMOVUPS  Z10, K1, (R8)(AX*4)
	VADDPS   Z9, Z0, Z0
	VMULPS.Z 64(R11)(AX*4), Z14, K2, Z9
	VSUBPS   Z9, Z1, Z10
	VSUBPS   Z15, Z10, Z10
	VMOVUPS  Z10, K2, 64(R8)(AX*4)
	VADDPS   Z9, Z1, Z1

chunkupper:
	VADDPS  Z15, Z0, Z0
	VMOVUPS Z0, K1, (DI)(AX*4)
	VADDPS  Z15, Z1, Z1
	VMOVUPS Z1, K2, 64(DI)(AX*4)
	ADDQ    $32, AX
	JMP     chunk

done:
	VZEROUPPER
	RET

// The scans below take 16 items an iteration. Each compares its lanes into
// a mask (VCMPPS predicate 5, not less than, is true on unordered operands,
// so a NaN is kept), packs the kept items' numbers into the low lanes of a
// register with VPCOMPRESSD and stores the register whole at out[n] under
// K3, the block's lanes, and n moves on by the mask's POPCNT: the lanes past
// the count are overwritten by the next block. n never passes the block's
// first item, so every store stays inside out[:len]. K3 is all 16 lanes
// until fewer are left, then the last ones', which also masks the loads.

// Item numbers 0–15, added to the first item of a block.
DATA lanes<>+0(SB)/4, $0
DATA lanes<>+4(SB)/4, $1
DATA lanes<>+8(SB)/4, $2
DATA lanes<>+12(SB)/4, $3
DATA lanes<>+16(SB)/4, $4
DATA lanes<>+20(SB)/4, $5
DATA lanes<>+24(SB)/4, $6
DATA lanes<>+28(SB)/4, $7
DATA lanes<>+32(SB)/4, $8
DATA lanes<>+36(SB)/4, $9
DATA lanes<>+40(SB)/4, $10
DATA lanes<>+44(SB)/4, $11
DATA lanes<>+48(SB)/4, $12
DATA lanes<>+52(SB)/4, $13
DATA lanes<>+56(SB)/4, $14
DATA lanes<>+60(SB)/4, $15
GLOBL lanes<>(SB), RODATA|NOPTR, $64

// SCANSETUP broadcasts first+0…15 into Z5 and 16 into Z6, and sets K3 to all
// 16 lanes; it clobbers R11.
#define SCANSETUP \
	VPBROADCASTD R8, Z5; \
	VPADDD       lanes<>(SB), Z5, Z5; \
	MOVL         $16, R11; \
	VPBROADCASTD R11, Z6; \
	MOVL         $0xFFFF, R11; \
	KMOVW        R11, K3

// SCANMASK sets K3 to the lanes of the 16 items at AX, out of CX, and jumps
// to done when none is left; it clobbers R11 and R12.
#define SCANMASK \
	MOVQ  CX, R12; \
	SUBQ  AX, R12; \
	CMPQ  R12, $16; \
	JGE   body; \
	TESTQ R12, R12; \
	JLE   done; \
	TAILMASK(R12, R11); \
	KMOVW R11, K3

// SCANKEEP stores the items whose lanes are set in K1 at out[n] (DI, R9), in
// order, and moves n on; it clobbers R11 and Z7.
#define SCANKEEP \
	VPCOMPRESSD.Z Z5, K1, Z7; \
	VMOVDQU32     Z7, K3, (DI)(R9*4); \
	KMOVW         K1, R11; \
	POPCNTL       R11, R11; \
	ADDQ          R11, R9

// func outsideBandAVX512(upper, lower []float32, top, bottom float32, first types.ItemID, out []types.ItemID) int
//
// For every k below len(upper) with !(upper[k] < top) or !(bottom < lower[k]),
// first+k goes to out, in order, and the count is returned. Few items are
// expected to leave the band, so a block none of whose items does costs one
// branch and stores nothing. The caller guarantees len(lower) >= len(upper)
// and len(out) >= len(upper).
TEXT ·outsideBandAVX512(SB), NOSPLIT, $0-96
	MOVQ         upper_base+0(FP), SI
	MOVQ         upper_len+8(FP), CX
	MOVQ         lower_base+24(FP), R13
	VBROADCASTSS top+48(FP), Z8
	VBROADCASTSS bottom+52(FP), Z9
	MOVL         first+56(FP), R8
	MOVQ         out_base+64(FP), DI
	SCANSETUP
	XORQ         AX, AX
	XORQ         R9, R9           // n

loop:
	SCANMASK

body:
	VMOVUPS.Z (SI)(AX*4), K3, Z0
	VCMPPS    $5, Z8, Z0, K3, K1          // !(upper < top)
	VCMPPS    $5, (R13)(AX*4), Z9, K3, K2 // !(bottom < lower)
	KORW      K2, K1, K1
	KORTESTW  K1, K1
	JEQ       next
	SCANKEEP

next:
	VPADDD Z6, Z5, Z5
	ADDQ   $16, AX
	JMP    loop

done:
	MOVQ R9, ret+88(FP)
	VZEROUPPER
	RET

// func gainScanAVX512(raw, cov []float32, min, scale, theta, bar float32, first types.ItemID, out []types.ItemID, sparse bool) int
//
// For every k below len(raw) whose gain
//
//	(1−θ)·clamp((raw[k]−min)·scale, 0, 1) + θ·cov[k]
//
// is not below bar, first+k goes to out, in order, and the count is
// returned. Each lane runs gainScanGeneric's operations in its order:
//   - the clamp is VMAXPS with the zero as first operand, (0 > v) ? 0 : v,
//     then VMINPS with the one as first operand, (1 < w) ? 1 : w. Each
//     returns its second operand when the compare is false, so a NaN stays a
//     NaN and a −0 stays a −0, as the Go twin's `v < 0` and `v > 1` branches
//     leave them;
//   - predicate 5 is the twin's !(g < bar): a NaN gain and a tie are kept.
//
// When sparse is set, a block none of whose gains reaches the bar stores
// nothing: a branch that costs a misprediction on a block that keeps some
// and saves the store on one that keeps none, so it pays only where few
// items are kept. The caller guarantees len(cov) >= len(raw) and
// len(out) >= len(raw).
TEXT ·gainScanAVX512(SB), NOSPLIT, $0-112
	MOVQ         raw_base+0(FP), SI
	MOVQ         raw_len+8(FP), CX
	MOVQ         cov_base+24(FP), R13
	VBROADCASTSS min+48(FP), Z8
	VBROADCASTSS scale+52(FP), Z9
	VBROADCASTSS theta+56(FP), Z10
	VBROADCASTSS bar+60(FP), Z12
	MOVL         first+64(FP), R8
	MOVQ         out_base+72(FP), DI
	MOVBLZX      sparse+96(FP), R14
	MOVL         $0x3f800000, AX  // 1.0
	VPBROADCASTD AX, Z13
	VSUBPS       Z10, Z13, Z11    // 1−θ
	VPXORD       Z4, Z4, Z4
	SCANSETUP
	XORQ         AX, AX
	XORQ         R9, R9           // n

loop:
	SCANMASK

body:
	VMOVUPS.Z (SI)(AX*4), K3, Z0
	VSUBPS    Z8, Z0, Z0          // raw−min
	VMULPS    Z9, Z0, Z0          // ·scale
	VMAXPS    Z0, Z4, Z1          // (0 > v) ? 0 : v
	VMINPS    Z1, Z13, Z2         // (1 < w) ? 1 : w, a(i)
	VMULPS    Z11, Z2, Z2         // (1−θ)·a(i)
	VMOVUPS.Z (R13)(AX*4), K3, Z3
	VMULPS    Z10, Z3, Z3         // θ·c(i)
	VADDPS    Z3, Z2, Z2          // the gain
	VCMPPS    $5, Z12, Z2, K3, K1 // !(gain < bar)
	TESTL     R14, R14
	JE        keep
	KORTESTW  K1, K1
	JEQ       next

keep:
	SCANKEEP

next:
	VPADDD Z6, Z5, Z5
	ADDQ   $16, AX
	JMP    loop

done:
	MOVQ R9, ret+104(FP)
	VZEROUPPER
	RET

// func sgdUpdateAVX512(pu, qi []float64, err, lr, reg float64, nonNegative bool)
//
// For every f below len(pu), from the values both rows held before:
// pu[f] = lr·(err·qi[f] − reg·pu[f]) + pu[f] and
// qi[f] = qi[f] + lr·(err·pu[f] − reg·qi[f]), and then, when nonNegative is
// set, each new value below zero becomes +0. Each lane runs
// sgdUpdateGeneric's operations in its order, each operation's first source
// the one the compiled twin's SSE2 instruction has for its destination (so
// that of two NaN operands the same one's payload is kept): the products
// err·qi[f] as qi[f]·err, reg·pu[f] as pu[f]·reg, the difference times lr as
// difference·lr, and the new pu[f] as that product plus pu[f], the new qi[f]
// as qi[f] plus it. The clamp is VCMPPD predicate 5, !(v < 0), which holds
// for a −0 and a NaN, and a zero-masked move of the lanes it does not hold
// for, as the twin's `v < 0` branch stores +0. Eight factors an iteration;
// the last, short one is the same body under the mask K1 of its factors.
// The caller guarantees len(qi) >= len(pu) and that the rows do not overlap.
TEXT ·sgdUpdateAVX512(SB), NOSPLIT, $0-73
	MOVQ         pu_base+0(FP), SI
	MOVQ         pu_len+8(FP), CX
	MOVQ         qi_base+24(FP), DI
	VBROADCASTSD err+48(FP), Z0
	VBROADCASTSD lr+56(FP), Z1
	VBROADCASTSD reg+64(FP), Z2
	MOVBLZX      nonNegative+72(FP), R8
	VPXORQ       Z3, Z3, Z3
	MOVL         $0xFF, AX
	KMOVW        AX, K1
	XORQ         AX, AX

loop:
	MOVQ  CX, R9
	SUBQ  AX, R9
	CMPQ  R9, $8
	JGE   body
	TESTQ R9, R9
	JLE   done
	TAILMASK(R9, R10)
	KMOVW R10, K1

body:
	VMOVUPD.Z (SI)(AX*8), K1, Z4 // p
	VMOVUPD.Z (DI)(AX*8), K1, Z5 // q
	VMULPD    Z0, Z5, Z6         // q·err
	VMULPD    Z2, Z4, Z7         // p·reg
	VSUBPD    Z7, Z6, Z6
	VMULPD    Z1, Z6, Z6         // ·lr
	VADDPD    Z4, Z6, Z6         // + p: the new p
	VMULPD    Z0, Z4, Z7         // p·err
	VMULPD    Z2, Z5, Z8         // q·reg
	VSUBPD    Z8, Z7, Z7
	VMULPD    Z1, Z7, Z7         // ·lr
	VADDPD    Z7, Z5, Z7         // q + …: the new q
	TESTQ     R8, R8
	JE        store
	VCMPPD    $5, Z3, Z6, K2     // !(p < 0)
	VMOVUPD.Z Z6, K2, Z6
	VCMPPD    $5, Z3, Z7, K2     // !(q < 0)
	VMOVUPD.Z Z7, K2, Z7

store:
	VMOVUPD Z6, K1, (SI)(AX*8)
	VMOVUPD Z7, K1, (DI)(AX*8)
	ADDQ    $8, AX
	JMP     loop

done:
	VZEROUPPER
	RET

// func cpuAVX512() bool
//
// Whether this CPU runs the AVX-512F bodies and its OS keeps their
// registers: CPUID leaf 1 reports POPCNT (ECX bit 23) and OSXSAVE (bit 27),
// leaf 7 exists and reports AVX512F (EBX bit 16), and XCR0, read by XGETBV,
// has the SSE, AVX, opmask and both ZMM state bits (1, 2 and 5–7) set, so a
// context switch saves the k registers and the upper halves of the zmm
// registers.
TEXT ·cpuAVX512(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x08800000, CX
	CMPL CX, $0x08800000
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $16, BX
	JCC  no
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
