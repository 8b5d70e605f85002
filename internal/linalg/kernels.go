package linalg

import (
	"fmt"
	"unsafe"

	"ganc/internal/types"
)

// Scoring kernels and contiguous factor-block layouts for the bulk-scoring
// hot path. The MF/rank models train in float64 per-row slices (numerically
// convenient) but serve from the types below: one backing slice per factor
// matrix (row stride = dims), float32 elements, and fixed-width unrolled dot
// kernels whose independent accumulators break the loop-carried ADD
// dependency that bounds a naive scalar loop. DESIGN.md §12 documents the
// layout and the benchmark methodology; TestKernelSpeedupGate gates the
// speedup ratio in CI.

// Dot64 is the scalar float64 reference dot product. Single accumulator,
// left-to-right — the exact summation order the per-row [][]float64 paths
// use, kept here so the kernel benchmarks compare against the real baseline.
func Dot64(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Dot32x8 computes the float32 dot product — the kernel the bulk scorers run
// and the one the CI ratio gate measures against Dot64. On an amd64 CPU with
// AVX-512 it is one 16-lane accumulator, lane m summing the elements ≡ m
// (mod 16), and a fixed reduction tree (dot_amd64.s). Elsewhere it is the
// 8-accumulator pure-Go version below (gc does not auto-vectorize scalar
// loops, so it tops out at the 2-loads-per-element scalar port limit). Both
// reduce through a fixed tree, so results are deterministic for a given dims
// on a given side of the CPU check.
func Dot32x8(a, b []float32) float32 {
	if len(b) < len(a) { // one bounds check up front covers the asm kernel
		panic("linalg: Dot32x8: len(b) < len(a)")
	}
	return dot32x8(a, b)
}

// PrefetchRow asks the CPU to pull every 64 B line of row into its L1 cache
// before it is read: a hint, so it changes no value and never faults.
// mf.TrainRSVD issues it a few steps ahead of the factor rows it will read
// (DESIGN.md §12, "Training"). It is PREFETCHT0 on amd64 and does nothing
// elsewhere.
func PrefetchRow(row []float64) { prefetchRow(row) }

// Prefetch is PrefetchRow for the one 64 B line holding *p.
func Prefetch[T any](p *T) { prefetchLine(unsafe.Pointer(p)) }

// dot32x8Generic is the portable Dot32x8: 8 independent accumulators break
// the loop-carried ADD dependency of the single-accumulator scalar loop;
// three-index slice expressions pin capacities so one comparison proves all
// sixteen loads per block are in bounds.
func dot32x8Generic(a, b []float32) float32 {
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	i := 0
	for ; i+8 <= len(a); i += 8 {
		aa := a[i : i+8 : i+8]
		bb := b[i : i+8 : i+8]
		s0 += aa[0] * bb[0]
		s1 += aa[1] * bb[1]
		s2 += aa[2] * bb[2]
		s3 += aa[3] * bb[3]
		s4 += aa[4] * bb[4]
		s5 += aa[5] * bb[5]
		s6 += aa[6] * bb[6]
		s7 += aa[7] * bb[7]
	}
	s := ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// dotRows32x8Generic is the portable row kernel: dot32x8Generic against each
// indexed row of the n-row, len(v)-wide row-major matrix in data, and 0 for
// an index that is not one of its rows.
func dotRows32x8Generic(v, data []float32, rows []types.ItemID, out []float32, n int) {
	dims := len(v)
	for k, r := range rows {
		if uint(r) >= uint(n) { // one compare: a negative index converts to a huge one
			out[k] = 0
			continue
		}
		off := int(r) * dims
		out[k] = dot32x8Generic(v, data[off:off+dims:off+dims])
	}
}

// AddBase32 is the score epilogue of a factor model without per-item terms:
// out[k] = float32(base + float64(out[k])) for every k, the float64 sum a
// per-item loop takes, rounded once. On an amd64 CPU with AVX-512 it is a
// kernel that takes 16 lanes at a time; elsewhere it is that loop, with the
// same bits. It adds no zero bias in place of a missing one:
// −0 + +0 is +0, so that would change a score.
func AddBase32(out []float32, base float64) { addBase32(out, base) }

// AddBaseBias32 is the score epilogue of a factor model with per-item bias
// terms: out[k] = float32(base + float64(out[k]) + bias[k]) for every k,
// summed left to right, 16 lanes at a time where AddBase32 is. It panics
// when bias is shorter than out.
func AddBaseBias32(out []float32, base float64, bias []float64) {
	if len(bias) < len(out) {
		panic(fmt.Sprintf("linalg: AddBaseBias32: len(bias) = %d < len(out) = %d", len(bias), len(out)))
	}
	addBaseBias32(out, base, bias)
}

// addBase32Generic is the portable AddBase32.
func addBase32Generic(out []float32, base float64) {
	for k, s := range out {
		out[k] = float32(base + float64(s))
	}
}

// addBaseBias32Generic is the portable AddBaseBias32.
func addBaseBias32Generic(out []float32, base float64, bias []float64) {
	bias = bias[:len(out)]
	for k, s := range out {
		out[k] = float32(base + float64(s) + bias[k])
	}
}

// Block is a dense rows×dims float32 matrix in one backing slice, row-major
// with stride = dims. Factor matrices convert into Blocks once after
// training (or snapshot load) so the scoring loop walks contiguous memory
// instead of chasing per-row slice headers.
type Block struct {
	rows, dims int
	data       []float32
}

// BlockFrom64 packs a [][]float64 factor matrix into a Block, truncating
// each element to float32. Every row must have the same length. A matrix
// with zero rows yields an empty Block with dims 0.
func BlockFrom64(m [][]float64) Block {
	if len(m) == 0 {
		return Block{}
	}
	dims := len(m[0])
	data := make([]float32, len(m)*dims)
	for r, row := range m {
		base := r * dims
		for c, v := range row {
			data[base+c] = float32(v)
		}
	}
	return Block{rows: len(m), dims: dims, data: data}
}

// Rows returns the number of rows.
func (b Block) Rows() int { return b.rows }

// Row returns row r as a full-capacity subslice of the backing array.
func (b Block) Row(r int) []float32 {
	off := r * b.dims
	return b.data[off : off+b.dims : off+b.dims]
}

// DotRows32x8 fills out[k] with Dot32x8(v, b.Row(rows[k])) for every k below
// len(rows), in one kernel call: a bulk scorer's whole item list (a turn's
// catalog, an engine's candidates) costs one call instead of one per item.
// The index list is an item-identifier slice because item slices are the
// only index lists the scoring path has, and taking them as they are needs
// neither a copy nor a reinterpreting cast. The row kernel runs the pair kernel's body per row (same
// accumulators, same reduction tree), so every out[k] carries the bits
// Dot32x8 returns for that row. It panics, before reading any row or writing
// any score, when v is not dims wide, out is shorter than rows, or an index
// is not a row of the block.
func (b Block) DotRows32x8(v []float32, rows []types.ItemID, out []float32) {
	b.checkRowKernelShape(v, rows, out)
	if k := b.firstOutside(rows); k < len(rows) {
		panic(fmt.Sprintf("linalg: DotRows32x8: rows[%d] = %d outside the block's %d rows", k, rows[k], b.rows))
	}
	dotRows32x8(v, b.data, rows, out, b.rows)
}

func (b Block) checkRowKernelShape(v []float32, rows []types.ItemID, out []float32) {
	if len(v) != b.dims {
		panic(fmt.Sprintf("linalg: DotRows32x8: len(v) = %d, block dims %d", len(v), b.dims))
	}
	if len(out) < len(rows) {
		panic(fmt.Sprintf("linalg: DotRows32x8: len(out) = %d < len(rows) = %d", len(out), len(rows)))
	}
}

// firstOutside returns the position of the first index in rows that is not a
// row of b, len(rows) when every one is.
func (b Block) firstOutside(rows []types.ItemID) int {
	for k, r := range rows {
		if uint(r) >= uint(b.rows) { // one compare: a negative index converts to a huge one
			return k
		}
	}
	return len(rows)
}
