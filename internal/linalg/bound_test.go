package linalg

// The dot bounds a turn prunes by: the bound pass and the band scan against
// their Go twins, bit for bit, and DotBounds32 against the kernel dots it
// bounds from both sides, for ordinary and hostile factor rows.

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

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

// misaligned returns a buffer of n+off+16 elements, each fill, and lo, where
// its row of n elements starts: off elements past a 32-byte boundary, so
// that off 0 is aligned to a ymm register's width and off 1–7 are not, with
// room outside the row on both sides to see a stray write.
func misaligned[T float32 | float64](n, off int, fill T) (buf []T, lo int) {
	buf = make([]T, n+off+16)
	for k := range buf {
		buf[k] = fill
	}
	size := uintptr(unsafe.Sizeof(fill))
	return buf, int((32-uintptr(unsafe.Pointer(&buf[0]))%32)%32/size) + off
}

// untouched reports whether every element of buf outside [lo, hi) is fill.
func untouched[T comparable](buf []T, lo, hi int, fill T) bool {
	for k, x := range buf {
		if (k < lo || k >= hi) && x != fill {
			return false
		}
	}
	return true
}

// checkHeadBounds fails unless the dispatched bound pass gives the bits of
// its Go loop, with the lower row and without it, over n items: h head
// factors, the first w of them in head and the others in rest, every input
// drawn from draw, the output rows and the tail norms starting off elements
// past a 32-byte boundary and head and rest at other offsets; and nothing is
// written outside the rows.
func checkHeadBounds(t *testing.T, n, off, w, h int, draw func() float32) {
	t.Helper()
	const sentinel = float32(-12345)
	padded := (n + headChunk - 1) / headChunk * headChunk
	headBuf, hlo := misaligned(padded*w, (off+3)%8, float32(0))
	restBuf, rlo := misaligned(padded*(h-w), (off+5)%8, float32(0))
	rhoBuf, plo := misaligned(n, off, float32(0))
	head, rest, rho := headBuf[hlo:hlo+padded*w], restBuf[rlo:rlo+padded*(h-w)], rhoBuf[plo:plo+n]
	for _, row := range [][]float32{head, rest, rho} {
		for k := range row {
			row[k] = draw()
		}
	}
	pb := make([]float32, h)
	for f := range pb {
		pb[f] = draw()
	}
	pt, c := draw(), draw()
	upBuf, ulo := misaligned(n, off, sentinel)
	lowBuf, llo := misaligned(n, off, sentinel)
	aloneBuf, alo := misaligned(n, off, sentinel)
	headBounds32(upBuf[ulo:ulo+n], lowBuf[llo:llo+n], head, rest, pb, rho, w, pt, c)
	headBounds32(aloneBuf[alo:alo+n], nil, head, rest, pb, rho, w, pt, c)
	want, wantLow, wantAlone := make([]float32, n), make([]float32, n), make([]float32, n)
	headBounds32Generic(want, wantLow, head, rest, pb, rho, w, pt, c)
	headBounds32Generic(wantAlone, nil, head, rest, pb, rho, w, pt, c)
	for k := range want {
		if got, low, alone := upBuf[ulo+k], lowBuf[llo+k], aloneBuf[alo+k]; !sameBits(got, want[k]) || !sameBits(low, wantLow[k]) || !sameBits(alone, wantAlone[k]) {
			t.Fatalf("%d items at offset %d, %d factors, %d in head: item %d upper %v, lower %v, alone %v; Go loop %v, %v, %v", n, off, h, w, k, got, low, alone, want[k], wantLow[k], wantAlone[k])
		}
	}
	if !untouched(upBuf, ulo, ulo+n, sentinel) || !untouched(lowBuf, llo, llo+n, sentinel) || !untouched(aloneBuf, alo, alo+n, sentinel) {
		t.Fatalf("%d items at offset %d, %d factors, %d in head: wrote outside a row", n, off, h, w)
	}
}

// TestHeadBoundsMatchPortable holds the VEX bound pass to its Go loop, value
// for value, with and without the lower row: every length 0 to two chunks
// and five items (whole chunks, then the eight-, four- and one-item paths),
// every start 0–7 elements past a 32-byte boundary, 0 to 5 head factors and
// 0 to headDims of them, each of the first 0 to all of them in head and the
// others in rest, and NaN, ±Inf, ±0 and subnormal lanes: none, a few or a
// quarter of the inputs hostile.
func TestHeadBoundsMatchPortable(t *testing.T) {
	if !useAVX {
		t.Skip("this CPU runs no AVX: the bound pass is its Go loop")
	}
	rng := rand.New(rand.NewSource(45))
	vals := boundValues()
	for n := 0; n <= 2*headChunk+5; n++ {
		for off := 0; off < 8; off++ {
			hostile := []int{0, 50, 4}[(n+off)%3]
			draw := func() float32 {
				if hostile > 0 && rng.Intn(hostile) == 0 {
					return vals[rng.Intn(len(vals))]
				}
				return float32(rng.NormFloat64())
			}
			for _, h := range []int{rng.Intn(6), rng.Intn(headDims + 1)} {
				checkHeadBounds(t, n, off, rng.Intn(h+1), h, draw)
			}
		}
	}
}

// FuzzHeadBoundsMatchPortable is TestHeadBoundsMatchPortable over drawn
// shapes and values: h head factors (up to headDims), w of them in head, n
// items (up to three chunks and seven), the rows' start off elements past a
// 32-byte boundary, and each input value read from raw — one of boundValues
// for an even selector byte, the float32 whose bits are the next four bytes
// for an odd one — so NaN, ±Inf, ±0, subnormal and any other lanes meet.
func FuzzHeadBoundsMatchPortable(f *testing.F) {
	f.Add(uint8(16), uint8(32), uint8(2*headChunk+5), uint8(3), []byte{2, 6, 1, 0x7f, 0xc0, 0, 1, 10, 0, 3, 0x80, 0, 0, 0, 5, 0, 0, 0, 1})
	f.Add(uint8(0), uint8(5), uint8(13), uint8(7), []byte{0, 4, 8, 12, 16, 20, 24})
	f.Add(uint8(40), uint8(40), uint8(255), uint8(0), []byte{})
	vals := boundValues()
	f.Fuzz(func(t *testing.T, w, h, n, off uint8, raw []byte) {
		if !useAVX {
			t.Skip("this CPU runs no AVX: the bound pass is its Go loop")
		}
		at := 0
		next := func() byte {
			b := raw[at%len(raw)]
			at++
			return b
		}
		draw := func() float32 {
			if len(raw) == 0 {
				return 0
			}
			if b := next(); b&1 == 0 {
				return vals[int(b>>1)%len(vals)]
			}
			return math.Float32frombits(uint32(next())<<24 | uint32(next())<<16 | uint32(next())<<8 | uint32(next()))
		}
		hh := int(h) % (headDims + 1)
		checkHeadBounds(t, int(n)%(3*headChunk+8), int(off)%8, int(w)%(hh+1), hh, draw)
	})
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
