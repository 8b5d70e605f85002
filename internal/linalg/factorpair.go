package linalg

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"ganc/internal/types"
)

// headDims is the number of factors a dot bound computes exactly: the item
// block's headDims columns of largest energy (Σ_i q_if²), kept again column
// by column so that one pass bounds a whole catalog four items at a time.
// The other factors are bounded by Cauchy–Schwarz. More columns cost the
// pass more and rule out more items; DESIGN.md §12 gives the measurement.
const headDims = 16

// headChunk is the number of items whose head factors lie together: the
// pass sums a chunk's items in eight independent four-item sums, and the
// chunk's factors are one contiguous stream (headChunk·h values).
const headChunk = 32

// FactorPair holds one latent-factor model's (user, item) matrices in the
// float32 block layout its bulk scores are served from, and what DotBounds32
// bounds a user's dots by without computing them. A model builds one from its
// float64 training rows when it is trained or decoded and never writes it
// again, so a served model's pair is read-only.
type FactorPair struct {
	UserB, ItemB Block
	// cols are the head factors, largest energy first, and tailCols the
	// rest. head holds item row i's value of head factor f at headAt(i, f,
	// len(cols)), and tails[i] the row's norm over the tail factors rounded
	// up to a float32, or NaN when the row has a value or a norm that is not
	// finite. headMax[f] is the largest |value| of head factor f over the
	// finite rows, maxTail the largest finite tail norm and maxNorm the
	// largest finite norm ‖q_i‖.
	cols, tailCols   []int
	head, tails      []float32
	headMax          []float64
	maxTail, maxNorm float64
}

// NewFactorPair packs the float64 factor rows into float32 blocks and lays
// out the item rows' head factors and tail norms.
func NewFactorPair(userF, itemF [][]float64) FactorPair {
	p := FactorPair{UserB: BlockFrom64(userF), ItemB: BlockFrom64(itemF)}
	rows, dims := p.ItemB.rows, p.ItemB.dims
	finite := make([]bool, rows)
	energy := make([]float64, dims)
	for i := range finite {
		n := rowNorm(p.ItemB.Row(i))
		if finite[i] = !math.IsInf(n, 0) && !math.IsNaN(n); finite[i] {
			p.maxNorm = max(p.maxNorm, n)
			for f, x := range p.ItemB.Row(i) {
				energy[f] += float64(float64(x) * float64(x))
			}
		}
	}
	p.cols = make([]int, dims)
	for f := range p.cols {
		p.cols[f] = f
	}
	slices.SortStableFunc(p.cols, func(a, b int) int { return cmp.Compare(energy[b], energy[a]) })
	p.cols, p.tailCols = p.cols[:min(headDims, dims)], p.cols[min(headDims, dims):]
	inHead := make([]bool, dims)
	for _, f := range p.cols {
		inHead[f] = true
	}
	chunks := (rows + headChunk - 1) / headChunk
	p.head, p.tails, p.headMax = make([]float32, chunks*headChunk*len(p.cols)), make([]float32, rows), make([]float64, len(p.cols))
	for i := range p.tails {
		row := p.ItemB.Row(i)
		for h, f := range p.cols {
			p.head[headAt(i, h, len(p.cols))] = row[f]
			if finite[i] {
				p.headMax[h] = max(p.headMax[h], math.Abs(float64(row[f])))
			}
		}
		var ss float64
		for f, x := range row {
			if !inHead[f] {
				ss += float64(float64(x) * float64(x))
			}
		}
		t := roundUp32(math.Sqrt(ss))
		if !finite[i] || math.IsInf(float64(t), 0) {
			p.tails[i] = float32(math.NaN())
			continue
		}
		p.tails[i] = t
		p.maxTail = max(p.maxTail, float64(t))
	}
	return p
}

// ItemDots32 fills out[k] with the float32 kernel dot of user row u and item
// row items[k] — the latent term of a factor model's float32 bulk scores — in
// one row-kernel call. An identifier outside the item block scores 0, as a
// zero factor row would: the kernel checks each index against the block's
// rows as it goes, and the model overwrites that 0 with its own fallback where
// the two differ. u must be a row of the user block and out hold len(items)
// elements.
func (p *FactorPair) ItemDots32(u types.UserID, items []types.ItemID, out []float32) {
	pu := p.UserB.Row(int(u))
	p.ItemB.checkRowKernelShape(pu, items, out)
	dotRows32x8(pu, p.ItemB.data, items, out, p.ItemB.rows)
}

// DotBounds32 fills out[i], for every item row i below len(out), with a bound
// of the dot ItemDots32 computes for user row u and item row i: the dot is
// finite and at most out[i], or out[i] is NaN. The head factors are summed
// exactly as the rows hold them and the rest bounded by Cauchy–Schwarz,
//
//	p·q_i = Σ_head p_f·q_if + Σ_tail p_f·q_if ≤ Σ_head p_f·q_if + ‖p_tail‖·‖q_i,tail‖,
//
// in one float32 pass, out[i] = ((‖q_i,tail‖·P + Σ_f q_if·p_f) + C), widened
// by what rounding can take from either side (DESIGN.md §12): a float32 dot
// over k factors, in any summation order, is at most γ_k·Σ|p_f·q_if| off,
// γ_k = kε/(1−kε) with ε = 2⁻²⁴, plus 2⁻¹⁵⁰ for each product lost to
// underflow, and the pass is such a sum of the head's products and two more
// terms. So P is ‖p_tail‖ widened by 2⁻¹², which covers the norms' own
// rounding, and C = γ_k·‖p‖·max‖q_i‖ + 2γ_{h+3}·(P·max‖q_i,tail‖ +
// Σ_f |p_f|·max|q_if| + that) + (k+h+4)·2⁻¹⁴⁹ for h head factors. An item
// row with a value or a norm that is not finite gets NaN. DotBounds32 reports
// false, and leaves out alone, when it can promise nothing: when u's row has
// a non-finite norm, when the dots or the bounds could come near the float32
// range (a product or a partial sum of the dot could overflow), or on a pair
// NewFactorPair did not build. len(out) must not exceed the item block's
// rows.
func (p *FactorPair) DotBounds32(u types.UserID, out []float32) bool {
	rows, dims := p.ItemB.rows, p.ItemB.dims
	if len(out) > rows {
		panic(fmt.Sprintf("linalg: DotBounds32: len(out) = %d > %d item rows", len(out), rows))
	}
	if len(p.tails) != rows {
		return false
	}
	pu := p.UserB.Row(int(u))
	var pb [4 * headDims]float32
	var headSum, tailSS float64
	for h, f := range p.cols {
		x := pu[f]
		pb[4*h], pb[4*h+1], pb[4*h+2], pb[4*h+3] = x, x, x, x
		headSum += math.Abs(float64(x)) * p.headMax[h]
	}
	for _, f := range p.tailCols {
		tailSS += float64(float64(pu[f]) * float64(pu[f]))
	}
	norm, scale := rowNorm(pu), math.Sqrt(tailSS)*(1+0x1p-12)
	gamma := func(n int) float64 { return float64(n) * 0x1p-24 / (1 - float64(n)*0x1p-24) }
	kernel := gamma(dims)*norm*p.maxNorm + float64(dims+1)*0x1p-149
	sum := scale*p.maxTail + headSum + kernel
	const limit = math.MaxFloat32 / 4
	if !(norm*p.maxNorm < limit && sum < limit) {
		return false
	}
	c := kernel + 2*gamma(len(p.cols)+3)*sum + float64(len(p.cols)+3)*0x1p-149
	headBounds32(out, p.head, pb[:4*len(p.cols)], p.tails[:len(out)], roundUp32(scale), roundUp32(c))
	return true
}

// headAt is where a pass over heads of h factors reads item i's factor f:
// chunk i/headChunk's h·headChunk values, factor by factor.
func headAt(i, f, h int) int { return (i/headChunk*h+f)*headChunk + i%headChunk }

// headBounds32Generic is the portable bound pass of DotBounds32: for every i
// below len(out), out[i] = ((rho[i]·pt + Σ_f head[headAt(i, f, h)]·pb[4f]) +
// c) over the h = len(pb)/4 head factors, summed in that order, every product
// rounded before its sum so that no build fuses the two. pb holds each head
// factor of the user four times over (the SSE2 pass loads them a quad at a
// time). It runs a chunk's factors one after another, so it reads head in
// order.
func headBounds32Generic(out, head, pb, rho []float32, pt, c float32) {
	h := len(pb) / 4
	for i, r := range rho[:len(out)] {
		out[i] = float32(r * pt)
	}
	for lo := 0; lo < len(out); lo += headChunk {
		items, chunk := out[lo:min(lo+headChunk, len(out))], head[lo*h:]
		for f := 0; f < h; f++ {
			x := pb[4*f]
			for k, q := range chunk[f*headChunk:][:len(items)] {
				items[k] += float32(q * x)
			}
		}
	}
	for i := range out {
		out[i] += c
	}
}

// rowNorm is the Euclidean norm of a float32 row, in float64: each square is
// exact, and the sum's relative error, about k·2⁻⁵³, is far inside the slack
// DotBounds32 allows. The products are rounded before the sum, so no build
// fuses them.
func rowNorm(row []float32) float64 {
	var ss float64
	for _, x := range row {
		ss += float64(float64(x) * float64(x))
	}
	return math.Sqrt(ss)
}

// roundUp32 is the least float32 not below x (+Inf past the float32 range,
// NaN for NaN).
func roundUp32(x float64) float32 {
	f := float32(x)
	if float64(f) < x {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// CheckFactors reports why userF and itemF cannot be a factor model's rows:
// a row, of either matrix, whose length differs from the first row's, or
// rows of no values. NewFactorPair and the models' dot products assume
// the shape, so a decoder checks it before building either.
func CheckFactors(userF, itemF [][]float64) error {
	dims := -1
	for side, rows := range [2][][]float64{userF, itemF} {
		for r, row := range rows {
			if dims < 0 {
				dims = len(row)
			}
			if len(row) != dims {
				return fmt.Errorf("%s row %d has %d factors, the first row has %d", [2]string{"user", "item"}[side], r, len(row), dims)
			}
		}
	}
	if dims == 0 {
		return errors.New("factor rows have no values")
	}
	return nil
}
