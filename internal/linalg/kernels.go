package linalg

import (
	"fmt"

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
// and the one the CI ratio gate measures against Dot64. On amd64 it
// dispatches to a hand-scheduled SSE2 kernel (4 lanes × 4 accumulators; SSE2
// is part of the amd64 baseline so no feature detection is needed — gc does
// not auto-vectorize scalar loops, so the unrolled Go version below tops out
// at the 2-loads-per-element scalar port limit). Other architectures run the
// 8-accumulator pure-Go version. Both reduce through a fixed tree, so results
// are deterministic for a given dims.
func Dot32x8(a, b []float32) float32 {
	if len(b) < len(a) { // one bounds check up front covers the asm kernel
		panic("linalg: Dot32x8: len(b) < len(a)")
	}
	return dot32x8(a, b)
}

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
// indexed row of the len(v)-wide row-major matrix in data.
func dotRows32x8Generic(v, data []float32, rows []types.ItemID, out []float32) {
	dims := len(v)
	for k, r := range rows {
		off := int(r) * dims
		out[k] = dot32x8Generic(v, data[off:off+dims:off+dims])
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

// BlockFromData wraps an existing flat row-major slice (len = rows*dims)
// without copying.
func BlockFromData(rows, dims int, data []float32) Block {
	if len(data) != rows*dims {
		panic("linalg: BlockFromData length mismatch")
	}
	return Block{rows: rows, dims: dims, data: data}
}

// Rows returns the number of rows.
func (b Block) Rows() int { return b.rows }

// Dims returns the row width (and stride).
func (b Block) Dims() int { return b.dims }

// Data returns the backing slice (rows×dims, row-major).
func (b Block) Data() []float32 { return b.data }

// Row returns row r as a full-capacity subslice of the backing array.
func (b Block) Row(r int) []float32 {
	off := r * b.dims
	return b.data[off : off+b.dims : off+b.dims]
}

// DotRows32x8 fills out[k] with Dot32x8(v, b.Row(rows[k])) for every k below
// len(rows), in one kernel call: a bulk scorer's whole candidate list costs
// one call instead of one per item. The index list is an item-identifier
// slice because candidate slices are the only index lists the scoring path
// has, and taking them as they are needs neither a copy nor a reinterpreting
// cast. The row kernel runs the pair kernel's body per row (same
// accumulators, same reduction tree), so every out[k] carries the bits
// Dot32x8 returns for that row. It panics, before reading any row or writing
// any score, when v is not dims wide, out is shorter than rows, or an index
// is not a row of the block.
func (b Block) DotRows32x8(v []float32, rows []types.ItemID, out []float32) {
	b.checkRowKernelShape(v, rows, out)
	if k := b.firstOutside(rows); k < len(rows) {
		panic(fmt.Sprintf("linalg: DotRows32x8: rows[%d] = %d outside the block's %d rows", k, rows[k], b.rows))
	}
	dotRows32x8(v, b.data, rows, out)
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
