package linalg

// The dot bounds a warm turn prunes by: the bound pass against its Go twin,
// bit for bit, and DotBounds32 against the kernel dots it bounds, for
// ordinary and hostile factor rows.

import (
	"math"
	"math/rand"
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
// value: every length 0–99 (whole chunks, then the four- and one-item paths),
// out and the tail norms at every start 0–3 of a larger buffer, 0 to 5 head
// factors, hostile values everywhere, and nothing written past the row.
func TestHeadBoundsMatchPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	vals := boundValues()
	draw := func() float32 { return vals[rng.Intn(len(vals))] }
	const sentinel = float32(-12345)
	for trial := 0; trial < 600; trial++ {
		n, off, factors := rng.Intn(100), rng.Intn(4), rng.Intn(6)
		chunks := (n + headChunk - 1) / headChunk
		head, rho := make([]float32, chunks*headChunk*factors), make([]float32, off+n)
		for k := range head {
			head[k] = draw()
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
		got, want := make([]float32, off+n+1), make([]float32, n)
		got[off+n] = sentinel
		headBounds32(got[off:off+n], head, pb, rho[off:], pt, c)
		headBounds32Generic(want, head, pb, rho[off:], pt, c)
		for k := range want {
			if !sameBits(got[off+k], want[k]) {
				t.Fatalf("trial %d: %d items at offset %d, %d factors: out[%d] = %v, Go loop %v", trial, n, off, factors, k, got[off+k], want[k])
			}
		}
		if got[off+n] != sentinel {
			t.Fatalf("trial %d: wrote past the row", trial)
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

// checkDotBounds fails unless every bound DotBounds32 gives over p's item
// rows is NaN or at least the kernel dot, which is then finite — on the
// dispatched kernel and on the portable one — and returns how many users it
// bounded.
func checkDotBounds(t *testing.T, label string, p FactorPair) int {
	t.Helper()
	items := types.CatalogItems(p.ItemB.Rows())
	bound, dots, portable := make([]float32, len(items)), make([]float32, len(items)), make([]float32, len(items))
	bounded := 0
	for u := 0; u < p.UserB.Rows(); u++ {
		if !p.DotBounds32(types.UserID(u), bound) {
			continue
		}
		bounded++
		p.ItemDots32(types.UserID(u), items, dots)
		dotRows32x8Generic(p.UserB.Row(u), p.ItemB.data, items, portable, p.ItemB.rows)
		for i, b := range bound {
			if b != b {
				continue
			}
			for _, d := range [2]float32{dots[i], portable[i]} {
				if !(d <= b) || math.IsInf(float64(d), 0) {
					t.Fatalf("%s: user %d item %d: bound %v, kernel dot %v (user row %v, item row %v)", label, u, i, b, d, p.UserB.Row(u), p.ItemB.Row(i))
				}
			}
		}
	}
	return bounded
}

// TestDotBoundsCoverDots: for ordinary rows and for hostile ones — huge,
// subnormal, negative, infinite and NaN values, alone and mixed — every
// bound is at least the kernel's dot or NaN; ordinary rows are always
// bounded, and their bounds are within a thousandth of the head's dot plus
// Cauchy–Schwarz on the rest (not vacuous).
func TestDotBoundsCoverDots(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, dims := range []int{1, 3, 4, 16, 40, 45} {
		p := NewFactorPair(hostileFactors(rng, 20, dims, nil), hostileFactors(rng, 50, dims, nil))
		if got := checkDotBounds(t, "normal", p); got != 20 {
			t.Fatalf("dims %d: %d of 20 ordinary users bounded", dims, got)
		}
		bound := make([]float32, 50)
		p.DotBounds32(3, bound)
		pu := p.UserB.Row(3)
		var tail float64
		for _, f := range p.tailCols {
			tail += float64(pu[f]) * float64(pu[f])
		}
		for i, b := range bound {
			exact, rest := 0.0, 0.0
			for h, f := range p.cols {
				exact += float64(pu[f]) * float64(p.head[headAt(i, h, len(p.cols))])
			}
			for _, f := range p.tailCols {
				rest += float64(p.ItemB.Row(i)[f]) * float64(p.ItemB.Row(i)[f])
			}
			if cs := exact + math.Sqrt(tail*rest); float64(b) > cs+1e-3*(math.Abs(cs)+1) {
				t.Fatalf("dims %d item %d: bound %v, the head's dot plus Cauchy–Schwarz on the rest %v", dims, i, b, cs)
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
// a row longer than the item block is refused.
func TestDotBoundsRefuse(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	items, user := rowKernelBlock(rng, 5, 4)
	users, _ := rowKernelBlock(rng, 2, 4)
	_ = user
	if (&FactorPair{UserB: users, ItemB: items}).DotBounds32(0, make([]float32, 5)) {
		t.Fatal("a pair NewFactorPair did not build bounded a user's dots")
	}
	p := NewFactorPair(hostileFactors(rng, 2, 4, nil), hostileFactors(rng, 5, 4, nil))
	defer func() {
		if recover() == nil {
			t.Fatal("DotBounds32 with a row longer than the item block did not panic")
		}
	}()
	p.DotBounds32(0, make([]float32, 6))
}
