package linalg

// The dot bounds a turn prunes by: the bound pass and the band scan against
// their Go twins, bit for bit, and DotBounds32 against the kernel dots it
// bounds from both sides, for ordinary and hostile factor rows.

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"ganc/internal/types"
)

// boundValues are the float32 inputs the bound pass's tests draw from: NaN,
// both zeros, both infinities, subnormals, the largest finite value and
// ordinary ones.
func boundValues() []float32 {
	return []float32{
		float32(math.NaN()), 0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.SmallestNonzeroFloat32, 1e-40, math.MaxFloat32, -math.MaxFloat32,
		1, 0.1, 3.4999998, 16777217, -2.5,
	}
}

// sameBits reports whether a and b are the same float32, any NaN equal to
// any other (a NaN's payload is the hardware's choice, not the expression's).
func sameBits(a, b float32) bool {
	if a != a || b != b {
		return a != a && b != b
	}
	return math.Float32bits(a) == math.Float32bits(b)
}

// TestHeadBoundsMatchPortable holds the bound pass to its Go loop, value for
// value, with and without the lower row: every length 0–99 (whole chunks,
// then the four- and one-item paths), both rows and the tail norms at every
// start 0–3 of a larger buffer, 0 to 5 head factors, each of the first 0 to
// all of them in head and the others in rest, hostile values everywhere, and
// nothing written past either row.
func TestHeadBoundsMatchPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	vals := boundValues()
	draw := func() float32 { return vals[rng.Intn(len(vals))] }
	const sentinel = float32(-12345)
	for trial := 0; trial < 600; trial++ {
		n, off, factors := rng.Intn(100), rng.Intn(4), rng.Intn(6)
		w, padded := rng.Intn(factors+1), (n+headChunk-1)/headChunk*headChunk
		head, rest, rho := make([]float32, padded*w), make([]float32, padded*(factors-w)), make([]float32, off+n)
		for k := range head {
			head[k] = draw()
		}
		for k := range rest {
			rest[k] = draw()
		}
		for k := range rho {
			rho[k] = draw()
		}
		pb := make([]float32, 4*factors)
		for f := 0; f < factors; f++ {
			x := draw()
			pb[4*f], pb[4*f+1], pb[4*f+2], pb[4*f+3] = x, x, x, x
		}
		pt, c := draw(), draw()
		got, gotLow := make([]float32, off+n+1), make([]float32, off+n+1)
		want, wantLow := make([]float32, n), make([]float32, n)
		alone, wantAlone := make([]float32, n+1), make([]float32, n)
		got[off+n], gotLow[off+n], alone[n] = sentinel, sentinel, sentinel
		headBounds32(got[off:off+n], gotLow[off:off+n], head, rest, pb, rho[off:], w, pt, c)
		headBounds32Generic(want, wantLow, head, rest, pb, rho[off:], w, pt, c)
		headBounds32(alone[:n], nil, head, rest, pb, rho[off:], w, pt, c)
		headBounds32Generic(wantAlone, nil, head, rest, pb, rho[off:], w, pt, c)
		for k := range want {
			if !sameBits(got[off+k], want[k]) || !sameBits(gotLow[off+k], wantLow[k]) || !sameBits(alone[k], wantAlone[k]) {
				t.Fatalf("trial %d: %d items at offset %d, %d factors, %d in head: item %d upper %v, lower %v, alone %v; Go loop %v, %v, %v", trial, n, off, factors, w, k, got[off+k], gotLow[off+k], alone[k], want[k], wantLow[k], wantAlone[k])
			}
		}
		if got[off+n] != sentinel || gotLow[off+n] != sentinel || alone[n] != sentinel {
			t.Fatalf("trial %d: wrote past a row", trial)
		}
	}
}

// hostileFactors returns rows×dims float64 factor rows whose values are drawn
// from pool, or standard normals where pool is nil.
func hostileFactors(rng *rand.Rand, rows, dims int, pool []float64) [][]float64 {
	m := make([][]float64, rows)
	for r := range m {
		m[r] = make([]float64, dims)
		for f := range m[r] {
			if pool == nil {
				m[r][f] = rng.NormFloat64()
			} else {
				m[r][f] = pool[rng.Intn(len(pool))]
			}
		}
	}
	return m
}

// checkDotBounds fails unless every upper bound DotBounds32 gives over p's
// item rows — beside the lower row, and alone, which sums fewer head factors
// — is NaN or at least the kernel dot, and every lower bound NaN or at most
// it, the dot then finite, on the dispatched kernel and on the portable one;
// it returns how many users it bounded.
func checkDotBounds(t *testing.T, label string, p FactorPair) int {
	t.Helper()
	items := types.CatalogItems(p.ItemB.Rows())
	bound, lower, alone := make([]float32, len(items)), make([]float32, len(items)), make([]float32, len(items))
	dots, portable := make([]float32, len(items)), make([]float32, len(items))
	bounded := 0
	for u := 0; u < p.UserB.Rows(); u++ {
		ok := p.DotBounds32(types.UserID(u), bound, lower)
		if p.DotBounds32(types.UserID(u), alone, nil) != ok {
			t.Fatalf("%s: user %d: bounded %v with the lower row, %v without", label, u, ok, !ok)
		}
		if !ok {
			continue
		}
		bounded++
		p.ItemDots32(types.UserID(u), items, dots)
		dotRows32x8Generic(p.UserB.Row(u), p.ItemB.data, items, portable, p.ItemB.rows)
		for i, b := range bound {
			for _, d := range [2]float32{dots[i], portable[i]} {
				for _, b := range [2]float32{b, alone[i]} {
					if b == b && (!(d <= b) || math.IsInf(float64(d), 0)) {
						t.Fatalf("%s: user %d item %d: bound %v, kernel dot %v (user row %v, item row %v)", label, u, i, b, d, p.UserB.Row(u), p.ItemB.Row(i))
					}
				}
				if l := lower[i]; l == l && (!(l <= d) || math.IsInf(float64(d), 0)) {
					t.Fatalf("%s: user %d item %d: lower bound %v, kernel dot %v (user row %v, item row %v)", label, u, i, l, d, p.UserB.Row(u), p.ItemB.Row(i))
				}
			}
		}
	}
	return bounded
}

// TestDotBoundsCoverDots: for ordinary rows and for hostile ones — huge,
// subnormal, negative, infinite and NaN values, alone and mixed — every
// upper bound is at least the kernel's dot or NaN, and every lower bound at
// most it or NaN; ordinary rows are always bounded, and their bounds are
// within a thousandth of the head's dot plus and minus Cauchy–Schwarz on the
// rest (not vacuous): a thousandth of that sum's magnitude for the upper row
// alone, and of the two terms' magnitudes summed for the two-row pass, whose
// 32-factor head dot can cancel the tail term down below its 2⁻¹² widening.
func TestDotBoundsCoverDots(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, dims := range []int{1, 3, 4, 16, 40, 45} {
		p := NewFactorPair(hostileFactors(rng, 20, dims, nil), hostileFactors(rng, 50, dims, nil))
		if got := checkDotBounds(t, "normal", p); got != 20 {
			t.Fatalf("dims %d: %d of 20 ordinary users bounded", dims, got)
		}
		bound, lower, alone := make([]float32, 50), make([]float32, 50), make([]float32, 50)
		p.DotBounds32(3, bound, lower)
		p.DotBounds32(3, alone, nil)
		pu := p.UserB.Row(3)
		for _, arm := range []struct {
			sp           split
			upper, lower []float32
		}{{p.splits[1], bound, lower}, {p.splits[0], alone, nil}} {
			head, rest := p.cols[:arm.sp.h], p.cols[arm.sp.h:]
			var tail float64
			for _, f := range rest {
				tail += float64(pu[f]) * float64(pu[f])
			}
			for i, b := range arm.upper {
				exact, norm := 0.0, 0.0
				for _, f := range head {
					exact += float64(pu[f]) * float64(p.ItemB.Row(i)[f])
				}
				for _, f := range rest {
					norm += float64(p.ItemB.Row(i)[f]) * float64(p.ItemB.Row(i)[f])
				}
				// The bound widens the tail term by 2⁻¹² and adds the
				// rounding terms: a thousandth of the bound's magnitude is
				// room enough for the upper row alone, and of the
				// magnitudes summed for the two-row pass.
				cs := math.Sqrt(tail * norm)
				slack := 1e-3 * (math.Abs(exact+cs) + 1)
				if arm.lower != nil {
					slack = 1e-3 * (math.Abs(exact) + cs + 1)
				}
				if float64(b) > exact+cs+slack {
					t.Fatalf("dims %d item %d, %d head factors: bound %v, the head's dot plus Cauchy–Schwarz on the rest %v", dims, i, arm.sp.h, b, exact+cs)
				}
				if arm.lower != nil && float64(arm.lower[i]) < exact-cs-slack {
					t.Fatalf("dims %d item %d, %d head factors: lower bound %v, the head's dot minus Cauchy–Schwarz on the rest %v", dims, i, arm.sp.h, arm.lower[i], exact-cs)
				}
			}
		}
	}
	// Item rows parallel to the user rows: Cauchy–Schwarz on the tail is an
	// equality for the rows pointing the user's way, so only the rounding
	// terms keep the bound above the kernel's dot.
	for _, dims := range []int{1, 2, 7, 16, 40, 100} {
		for trial := 0; trial < 20; trial++ {
			base := randRow64(rng, dims)
			users := [][]float64{base, make([]float64, dims)}
			for f, x := range base {
				users[1][f] = -3 * x
			}
			items := make([][]float64, 40)
			for r := range items {
				alpha := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
				items[r] = make([]float64, dims)
				for f, x := range base {
					items[r][f] = alpha * x
				}
			}
			if got := checkDotBounds(t, "parallel", NewFactorPair(users, items)); got != 2 {
				t.Fatalf("dims %d: %d of 2 parallel users bounded", dims, got)
			}
		}
	}
	// Item rows clustered about one row: every bound sums nearly the same
	// head, and only the terms that cover the float32 sums' rounding keep it
	// above the kernel's dot.
	for _, dims := range []int{1, 3, 40} {
		for trial := 0; trial < 50; trial++ {
			center := randRow64(rng, dims)
			items := make([][]float64, 40)
			for r := range items {
				items[r] = make([]float64, dims)
				for f, x := range center {
					items[r][f] = x + 1e-7*rng.NormFloat64()*math.Abs(x)
				}
			}
			checkDotBounds(t, "clustered", NewFactorPair(hostileFactors(rng, 10, dims, nil), items))
		}
	}
	pools := map[string][]float64{
		"huge":      {1e18, -1e18, 3e38, 1e19, 0.5},
		"overflow":  {1e300, -1e300, 1, 0},
		"subnormal": {1e-40, -1e-42, 1e-45, 0, math.Copysign(0, -1)},
		"tiny":      {1e-20, -1e-25, 1e-38, 1},
		"negative":  {-1, -0.5, -1e10, -3},
		"inf":       {math.Inf(1), math.Inf(-1), 1, 0},
		"nan":       {math.NaN(), 1, -1, 0},
		"mixed":     {math.NaN(), math.Inf(1), 1e-40, 3e38, -2, 0, 1e-20, 7},
	}
	for name, pool := range pools {
		for _, dims := range []int{1, 2, 5, 8, 33} {
			for trial := 0; trial < 5; trial++ {
				// Some rows ordinary, some hostile, so the mean and the
				// largest norm see both.
				users, items := hostileFactors(rng, 12, dims, nil), hostileFactors(rng, 30, dims, nil)
				for r := range users {
					if rng.Intn(2) == 0 {
						users[r] = hostileFactors(rng, 1, dims, pool)[0]
					}
				}
				for r := range items {
					if rng.Intn(3) == 0 {
						items[r] = hostileFactors(rng, 1, dims, pool)[0]
					}
				}
				checkDotBounds(t, name, NewFactorPair(users, items))
				checkDotBounds(t, name+" (all hostile)", NewFactorPair(hostileFactors(rng, 6, dims, pool), hostileFactors(rng, 15, dims, pool)))
			}
		}
	}
}

// TestDotBoundsRefuse: a pair NewFactorPair did not build bounds nothing, and
// a row longer than the item block, or a lower row shorter than the upper, is
// refused.
func TestDotBoundsRefuse(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	items, user := rowKernelBlock(rng, 5, 4)
	users, _ := rowKernelBlock(rng, 2, 4)
	_ = user
	if (&FactorPair{UserB: users, ItemB: items}).DotBounds32(0, make([]float32, 5), make([]float32, 5)) {
		t.Fatal("a pair NewFactorPair did not build bounded a user's dots")
	}
	p := NewFactorPair(hostileFactors(rng, 2, 4, nil), hostileFactors(rng, 5, 4, nil))
	for name, rows := range map[string][2][]float32{
		"a row longer than the item block":   {make([]float32, 6), nil},
		"a lower row shorter than the upper": {make([]float32, 5), make([]float32, 4)},
		"an empty lower row":                 {make([]float32, 3), {}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("DotBounds32 with %s did not panic", name)
				}
			}()
			p.DotBounds32(0, rows[0], rows[1])
		}()
	}
}

// TestOutsideBandMatchesPortable holds the band scan to its Go loop and to
// its definition: every length 0–70 at every start 0–3 of a larger buffer,
// hostile values in both rows, and bands whose ends are ±Inf, NaN, both zeros
// and values of the rows themselves (a tie leaves the band); the items kept
// are exactly those whose bounds reach an end or are NaN (every item, for a
// NaN end), numbered from first, and nothing is written past the list.
func TestOutsideBandMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	vals := boundValues()
	draw := func() float32 { return vals[rng.Intn(len(vals))] }
	const sentinel = types.ItemID(-7)
	for trial := 0; trial < 2000; trial++ {
		n, off := rng.Intn(71), rng.Intn(4)
		upper, lower := make([]float32, off+n), make([]float32, off+n)
		for k := range upper {
			upper[k], lower[k] = draw(), draw()
		}
		top, bottom := draw(), draw()
		if n > 0 && trial%3 == 0 {
			top, bottom = upper[off+rng.Intn(n)], lower[off+rng.Intn(n)]
		}
		first := types.ItemID(rng.Intn(1000))
		got, want := make([]types.ItemID, n+1), make([]types.ItemID, n)
		got[n] = sentinel
		k := OutsideBand(upper[off:], lower[off:], top, bottom, first, got[:n])
		wk := outsideBandGeneric(upper[off:], lower[off:], top, bottom, first, want)
		var def []types.ItemID
		for j := 0; j < n; j++ {
			if h, l := upper[off+j], lower[off+j]; h != h || l != l || top != top || bottom != bottom || h >= top || l <= bottom {
				def = append(def, first+types.ItemID(j))
			}
		}
		if k != wk || !slices.Equal(got[:k], want[:wk]) || !slices.Equal(want[:wk], def) || got[n] != sentinel {
			t.Fatalf("trial %d: %d items at offset %d, band (%v, %v): scan %v, Go loop %v, definition %v", trial, n, off, bottom, top, got[:k], want[:wk], def)
		}
	}
}
