package linalg

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"ganc/internal/types"
)

// upperDims and headDims are the numbers of factors a dot bound computes
// exactly: the item block's columns of largest energy (Σ_i q_if²), kept
// again column by column so that one pass bounds a whole catalog eight items
// at a time — the first upperDims of them for a pass that bounds from above
// only (a warm turn's bound row), all headDims for one that bounds from both
// sides (a first touch's, which certifies the user's range too). The other
// factors are bounded by Cauchy–Schwarz. More columns cost the pass more and
// rule out more items; DESIGN.md §12 gives the measurements each size rests
// on.
const upperDims, headDims = 16, 32

// headChunk is the number of items whose head factors lie together: the
// pass sums a chunk's items in four independent eight-item sums, and the
// chunk's factors are one contiguous stream (headChunk values a factor).
const headChunk = 32

// FactorPair holds one latent-factor model's (user, item) matrices in the
// float32 block layout its bulk scores are served from, and what DotBounds32
// bounds a user's dots by, from above and below, without computing them. A
// model builds one from its float64 training rows when it is trained or
// decoded and never writes it again, so a served model's pair is read-only.
type FactorPair struct {
	UserB, ItemB Block
	// cols are the item block's factors, largest energy first. head holds
	// item row i's value of cols[f], for f below w = splits[0].h, at
	// headAt(i, f, w), and rest its value of cols[w+f], for w+f below
	// len(headMax), at headAt(i, f, len(headMax)−w): a pass that bounds
	// from above only reads head, one that bounds from both sides head and
	// then rest, each a contiguous stream a chunk. headMax[f] is the largest
	// |value| of cols[f] over the finite rows, and maxNorm the largest
	// finite norm ‖q_i‖. splits[0] is the split of the first pass,
	// splits[1] of the second.
	cols       []int
	head, rest []float32
	headMax    []float64
	maxNorm    float64
	splits     [2]split
}

// split divides the factors into cols[:h], summed exactly, and the rest,
// bounded by Cauchy–Schwarz: tails[i] is item row i's norm over cols[h:]
// rounded up to a float32, or NaN when the row has a value or a norm that is
// not finite, and maxTail the largest finite tail norm.
type split struct {
	h       int
	tails   []float32
	maxTail float64
}

// NewFactorPair packs the float64 factor rows into float32 blocks and lays
// out the item rows' head factors and both splits' tail norms. With no more
// than upperDims factors the two splits are one.
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
	w, hs, padded := min(upperDims, dims), min(headDims, dims), (rows+headChunk-1)/headChunk*headChunk
	p.head, p.rest, p.headMax = make([]float32, padded*w), make([]float32, padded*(hs-w)), make([]float64, hs)
	splits := p.splits[:1]
	p.splits[0] = split{h: w, tails: make([]float32, rows)}
	if hs > w {
		p.splits[1] = split{h: hs, tails: make([]float32, rows)}
		splits = p.splits[:]
	}
	for i := 0; i < rows; i++ {
		row := p.ItemB.Row(i)
		for f, c := range p.cols[:hs] {
			if f < w {
				p.head[headAt(i, f, w)] = row[c]
			} else {
				p.rest[headAt(i, f-w, hs-w)] = row[c]
			}
			if finite[i] {
				p.headMax[f] = max(p.headMax[f], math.Abs(float64(row[c])))
			}
		}
		for k := range splits {
			sp := &splits[k]
			var ss float64
			for _, c := range p.cols[sp.h:] {
				ss += float64(float64(row[c]) * float64(row[c]))
			}
			t := roundUp32(math.Sqrt(ss))
			if !finite[i] || math.IsInf(float64(t), 0) {
				sp.tails[i] = float32(math.NaN())
				continue
			}
			sp.tails[i] = t
			sp.maxTail = max(sp.maxTail, float64(t))
		}
	}
	if len(splits) == 1 {
		p.splits[1] = p.splits[0]
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

// DotBounds32 fills upper[i], for every item row i below len(upper), with a
// bound of the dot ItemDots32 computes for user row u and item row i: the dot
// is finite and at most upper[i], or upper[i] is NaN. When lower is not nil
// (it must then be at least as long as upper), lower[i] is NaN or a finite
// dot is at least lower[i]. The head factors are summed exactly as the rows hold them
// and the rest bounded by Cauchy–Schwarz,
//
//	|p·q_i − Σ_head p_f·q_if| = |Σ_tail p_f·q_if| ≤ ‖p_tail‖·‖q_i,tail‖,
//
// in one float32 pass: upper[i] = ((‖q_i,tail‖·P + Σ_f q_if·p_f) + C) alone,
// or, with the lower row, from one sum s_i = Σ_f q_if·p_f two outputs, upper[i]
// = ((s_i + ‖q_i,tail‖·P) + C) and lower[i] = ((s_i − ‖q_i,tail‖·P) − C),
// widened by what rounding can take from either side (DESIGN.md §12): a
// float32 dot over k factors, in any summation order, is at most
// γ_k·Σ|p_f·q_if| off, γ_k = kε/(1−kε) with ε = 2⁻²⁴, plus 2⁻¹⁵⁰ for each
// product lost to underflow, and each output is such a sum of the head's
// products and two more terms. So P is ‖p_tail‖ widened by 2⁻¹², which covers
// the norms' own rounding, and C = γ_k·‖p‖·max‖q_i‖ + 2γ_{h+3}·(P·max‖q_i,tail‖
// + Σ_f |p_f|·max|q_if| + that) + (k+h+4)·2⁻¹⁴⁹ for h head factors: upperDims
// when lower is nil, headDims when it is not (the split, FactorPair.splits).
// Rounding to nearest commutes with negation, and P and C read only |p_f|, so
// lower[i] is the upper bound of the negated row's dot, negated: the lower
// bound needs no argument of its own. An item row with a value or a norm that
// is not finite gets NaN. DotBounds32 reports false, and leaves both rows
// alone, when it can promise nothing: when u's row has a non-finite norm, when
// the dots or the bounds could come near the float32 range (a product or a
// partial sum of the dot could overflow), or on a pair NewFactorPair did not
// build. len(upper) must not exceed the item block's rows.
func (p *FactorPair) DotBounds32(u types.UserID, upper, lower []float32) bool {
	rows, dims := p.ItemB.rows, p.ItemB.dims
	if len(upper) > rows {
		panic(fmt.Sprintf("linalg: DotBounds32: len(upper) = %d > %d item rows", len(upper), rows))
	}
	sp := &p.splits[0]
	if lower != nil {
		if len(lower) < len(upper) {
			panic(fmt.Sprintf("linalg: DotBounds32: len(lower) = %d < len(upper) = %d", len(lower), len(upper)))
		}
		lower, sp = lower[:len(upper)], &p.splits[1]
	}
	if len(sp.tails) != rows {
		return false
	}
	pu := p.UserB.Row(int(u))
	var pb [headDims]float32
	var headSum, tailSS float64
	for f, c := range p.cols[:sp.h] {
		pb[f] = pu[c]
		headSum += math.Abs(float64(pb[f])) * p.headMax[f]
	}
	for _, c := range p.cols[sp.h:] {
		tailSS += float64(float64(pu[c]) * float64(pu[c]))
	}
	norm, scale := rowNorm(pu), math.Sqrt(tailSS)*(1+0x1p-12)
	gamma := func(n int) float64 { return float64(n) * 0x1p-24 / (1 - float64(n)*0x1p-24) }
	kernel := gamma(dims)*norm*p.maxNorm + float64(dims+1)*0x1p-149
	sum := scale*sp.maxTail + headSum + kernel
	const limit = math.MaxFloat32 / 4
	if !(norm*p.maxNorm < limit && sum < limit) {
		return false
	}
	c := kernel + 2*gamma(sp.h+3)*sum + float64(sp.h+3)*0x1p-149
	headBounds32(upper, lower, p.head, p.rest, pb[:sp.h], sp.tails[:len(upper)], p.splits[0].h, roundUp32(scale), roundUp32(c))
	return true
}

// headAt is where a layout of h factors an item holds item i's factor f:
// chunk i/headChunk's h·headChunk values, factor by factor.
func headAt(i, f, h int) int { return (i/headChunk*h+f)*headChunk + i%headChunk }

// headBounds32Generic is the portable bound pass of DotBounds32: for every i
// below len(upper), with t = rho[i]·pt and Σ the sum over the h = len(pb)
// head factors, in order, of head[headAt(i, f, w)]·pb[f] for f below w and
// then of rest[headAt(i, f−w, h−w)]·pb[f], every product rounded before its
// sum so that no build fuses the two: when lower is nil, upper[i] =
// ((t + Σ) + c); when it is not, the sum starts from +0 instead of t,
// s = +0 + Σ, lower[i] = ((s − t) − c) and upper[i] = ((s + t) + c). pb holds
// the user's head factors, one value each (the AVX-512 pass broadcasts each
// to 16 lanes). It runs a chunk's factors one after another, so it reads head
// and rest in order, and sums in upper.
func headBounds32Generic(upper, lower, head, rest, pb, rho []float32, w int, pt, c float32) {
	h := len(pb)
	rho = rho[:len(upper)]
	for i, r := range rho {
		upper[i] = float32(r * pt)
		if lower != nil {
			upper[i] = 0
		}
	}
	for lo := 0; lo < len(upper); lo += headChunk {
		items := upper[lo:min(lo+headChunk, len(upper))]
		for f := 0; f < h; f++ {
			var chunk []float32
			if f < w {
				chunk = head[lo*w+f*headChunk:]
			} else {
				chunk = rest[lo*(h-w)+(f-w)*headChunk:]
			}
			x := pb[f]
			for k, q := range chunk[:len(items)] {
				items[k] += float32(q * x)
			}
		}
	}
	for i, s := range upper {
		if lower != nil {
			t := float32(rho[i] * pt)
			lower[i] = (s - t) - c
			s += t
		}
		upper[i] = s + c
	}
}

// OutsideBand writes to out, in ascending order, first+k for every k below
// len(upper) whose bounds do not keep it inside the band (bottom, top):
// !(upper[k] < top) or !(bottom < lower[k]) — an upper bound reaching top, a
// lower bound reaching bottom, or either NaN — and returns how many it wrote,
// n; what it leaves in out[n:len(upper)] is its own. It is the scan a range
// certification runs over a user's bound rows (DESIGN.md §12): once for the
// items that can still be among the largest and smallest upper and lower
// bounds, and once for those whose score can still reach an extreme. It is a
// 16-lane scan where the kernels are AVX-512 (dot_amd64.go), its Go twin
// elsewhere, with the same items either way. It panics when lower or out is
// shorter than upper.
func OutsideBand(upper, lower []float32, top, bottom float32, first types.ItemID, out []types.ItemID) int {
	if len(lower) < len(upper) || len(out) < len(upper) {
		panic(fmt.Sprintf("linalg: OutsideBand: len(lower) = %d, len(out) = %d < len(upper) = %d", len(lower), len(out), len(upper)))
	}
	return outsideBand(upper, lower, top, bottom, first, out)
}

// outsideBandGeneric is the portable OutsideBand.
func outsideBandGeneric(upper, lower []float32, top, bottom float32, first types.ItemID, out []types.ItemID) int {
	lower = lower[:len(upper)]
	n := 0
	for k, h := range upper {
		if !(h < top) || !(bottom < lower[k]) {
			out[n] = first + types.ItemID(k)
			n++
		}
	}
	return n
}

// GainScan writes to out, in ascending order, first+k for every k below
// len(raw) whose gain
//
//	g = float32((1−θ)·a) + float32(θ·cov[k]),  a = clamp((raw[k]−min)·scale, 0, 1)
//
// reaches bar — !(g < bar), so a tie and a NaN gain reach it — and returns
// how many it wrote, n; what it leaves in out[n:len(raw)] is its own. Every
// operation is float32 and rounded on its own: the clamp returns 0 for
// a v < 0 and 1 for a v > 1 and v itself otherwise, so a NaN and a −0 pass
// through it. It is the scan a walk keeps a block's candidates by
// (core.gainOf's gain under an affine map); sparse says few items are
// expected to reach the bar and changes only its speed. It is a 16-lane scan
// where the kernels are AVX-512, its Go twin elsewhere. It panics when cov or
// out is shorter than raw.
func GainScan(raw, cov []float32, min, scale, theta, bar float32, first types.ItemID, out []types.ItemID, sparse bool) int {
	if len(cov) < len(raw) || len(out) < len(raw) {
		panic(fmt.Sprintf("linalg: GainScan: len(cov) = %d, len(out) = %d < len(raw) = %d", len(cov), len(out), len(raw)))
	}
	return gainScan(raw, cov, min, scale, theta, bar, first, out, sparse)
}

// gainScanGeneric is the portable GainScan.
func gainScanGeneric(raw, cov []float32, min, scale, theta, bar float32, first types.ItemID, out []types.ItemID) int {
	cov = cov[:len(raw)]
	n := 0
	for k, s := range raw {
		a := (s - min) * scale
		if a < 0 {
			a = 0
		} else if a > 1 {
			a = 1
		}
		if g := float32((1-theta)*a) + float32(theta*cov[k]); !(g < bar) {
			out[n] = first + types.ItemID(k)
			n++
		}
	}
	return n
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
