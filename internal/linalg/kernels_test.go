package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"ganc/internal/types"
)

func randRow64(rng *rand.Rand, dims int) []float64 {
	row := make([]float64, dims)
	for i := range row {
		row[i] = rng.NormFloat64()
	}
	return row
}

func to32(row []float64) []float32 {
	out := make([]float32, len(row))
	for i, v := range row {
		out[i] = float32(v)
	}
	return out
}

// All float32 kernels must agree with a float64 accumulation of the same
// float32 inputs to within float32 rounding, for every dims alignment the
// remainder loops can see.
func TestDot32KernelsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for dims := 0; dims <= 40; dims++ {
		a64 := randRow64(rng, dims)
		b64 := randRow64(rng, dims)
		a, b := to32(a64), to32(b64)
		var want float64
		for i := range a {
			want += float64(a[i]) * float64(b[i])
		}
		tol := 1e-4 * (1 + math.Abs(want))
		for _, k := range []struct {
			name string
			fn   func(a, b []float32) float32
		}{
			{"Dot32x8", Dot32x8},
			{"dot32x8Generic", dot32x8Generic},
		} {
			got := float64(k.fn(a, b))
			if math.Abs(got-want) > tol {
				t.Errorf("dims=%d %s = %v, want %v (tol %v)", dims, k.name, got, want, tol)
			}
		}
	}
}

// The dispatched Dot32x8 (the AVX-512 body where the CPU runs it) must agree
// with its portable generic implementation for every tail alignment:
// bit-identity is not required (different summation trees), agreement within
// float32 rounding is.
func TestAsmMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for dims := 0; dims <= 70; dims++ {
		a64 := randRow64(rng, dims)
		b64 := randRow64(rng, dims)
		a, b := to32(a64), to32(b64)
		got := float64(Dot32x8(a, b))
		want := float64(dot32x8Generic(a, b))
		if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
			t.Errorf("dims=%d Dot32x8 = %v, generic = %v", dims, got, want)
		}
	}
}

// Kernels read len(a) elements: a longer b is fine, a shorter b panics up
// front instead of letting the asm read out of bounds.
func TestKernelLengthContract(t *testing.T) {
	a := []float32{1, 2, 3, 4, 5}
	b := []float32{1, 1, 1, 1, 1, 9, 9}
	if got := Dot32x8(a, b); got != 15 {
		t.Fatalf("Dot32x8 with longer b = %v, want 15", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Dot32x8 with short b did not panic")
		}
	}()
	Dot32x8(a, b[:3])
}

func TestDot64MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for dims := 0; dims <= 17; dims++ {
		a := randRow64(rng, dims)
		b := randRow64(rng, dims)
		var want float64
		for i := range a {
			want += a[i] * b[i]
		}
		if got := Dot64(a, b); got != want {
			t.Fatalf("dims=%d Dot64 = %v, want bit-identical %v", dims, got, want)
		}
	}
}

func TestBlockFrom64(t *testing.T) {
	m := [][]float64{{1, 2, 3}, {4, 5, 6}}
	b := BlockFrom64(m)
	if b.Rows() != 2 || b.dims != 3 {
		t.Fatalf("got %dx%d, want 2x3", b.Rows(), b.dims)
	}
	for r := range m {
		row := b.Row(r)
		if len(row) != 3 || cap(row) != 3 {
			t.Fatalf("row %d: len=%d cap=%d, want 3/3", r, len(row), cap(row))
		}
		for c, v := range m[r] {
			if row[c] != float32(v) {
				t.Fatalf("row %d col %d: got %v want %v", r, c, row[c], v)
			}
		}
	}
	empty := BlockFrom64(nil)
	if empty.Rows() != 0 || empty.dims != 0 || len(empty.data) != 0 {
		t.Fatalf("empty block not empty: %+v", empty)
	}
}

// TestKernelSpeedupGate is the CI kernel regression gate: each arm times one
// AVX-512 body against the Go loop it replaced. Dot32x8 must beat the scalar
// float64 baseline by ≥2x on the serving factor width, the row kernel must
// cost no more per row than the Dot32x8 call loop it replaced, and the score
// epilogues, the bound pass and the band scan must beat their Go twins
// (epilogueArms). Every arm measures the same way (speedupGate). The gain
// scan's arms are core's TestKernelSpeedupGate. Skipped under -race (instrumentation distorts the ratios),
// -short, and where the CPU runs no AVX-512: there every kernel is its Go
// twin (Dot32x8 the 8-accumulator loop, 1.06–1.36× Dot64 measured on 386).
func TestKernelSpeedupGate(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("kernel ratio gate is meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("skipping kernel ratio gate in -short mode")
	}
	if !useAVX512 {
		t.Skip("this CPU runs no AVX-512: every kernel the gate times is its Go twin on " + runtime.GOARCH)
	}
	const dims = 40 // RSVD's serving factor count
	rng := rand.New(rand.NewSource(11))
	a64 := randRow64(rng, dims)
	b64 := randRow64(rng, dims)
	a, b := to32(a64), to32(b64)
	var sink64 float64
	var sink32 float32
	// Best rounds read the SSE2 Dot32x8 at 3.2–4.2× Dot64 over five runs,
	// then 2.41–3.39× over three after code placement alone moved; the
	// AVX-512 body reads 2.37–2.95× over three (13 ns a 40-factor call,
	// mostly the call itself). One testing.Benchmark reading a side, as this
	// arm once took, read 2.25–2.73× alone and 1.91× and 1.33× beside a full
	// go test ./....
	speedupGate(t, "Dot32x8 against Dot64", 2, 20000, 1, [2]func(){
		func() { sink64 += Dot64(a64, b64) },
		func() { sink32 += Dot32x8(a, b) },
	})
	if sink64 == 0 && sink32 == 0 {
		t.Log("sinks both zero (keeps the loops live)")
	}

	// Second ratio: one row-kernel call over a candidate-shaped index list of
	// a serving-sized item block against the per-item Dot32x8 call loop the
	// bulk scorers ran before it; the kernel exists to be cheaper per row.
	// Both sides go memory-bound under a busy neighbour and then read within
	// a per cent of each other (alone the kernel wins by a fifth).
	block, v, list := rowKernelBench()
	out := make([]float32, len(list))
	speedupGate(t, "DotRows32x8 against the Dot32x8 call loop", 1, 100, len(list), [2]func(){
		func() { dotCallLoop(block, v, list, out) },
		func() { block.DotRows32x8(v, list, out) },
	})
	epilogueArms(t)
}

// TestAVX512SelectionMatchesCPU holds the CPU check that selects the AVX-512
// bodies to the kernel's own account of the CPU: on linux/amd64, useAVX512
// is true exactly when /proc/cpuinfo lists the avx512f flag, which the kernel
// clears where it does not save the zmm and mask registers. A check that
// always said no would leave every exactness test of the kernels and the
// speed gate skipped.
func TestAVX512SelectionMatchesCPU(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("the CPU's flags are read from /proc/cpuinfo on linux/amd64")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no CPU flags to compare with: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		if listed := slices.Contains(strings.Fields(flags), "avx512f"); listed != useAVX512 {
			t.Fatalf("the CPU check selects the AVX-512 bodies: %v; /proc/cpuinfo lists avx512f: %v", useAVX512, listed)
		}
		return
	}
	t.Skip("/proc/cpuinfo lists no flags")
}

// speedupGate fails the test unless sides[1] is at least bound times as fast
// as sides[0] in one of three attempts. An attempt is nine rounds; in each,
// both sides make calls calls, timed as a whole, one after the other, and
// each side keeps its best round: a busy neighbour slows a round, it never
// speeds one up, and the sides take turns at the same neighbour. It logs the
// cost per item, a call handling items items.
func speedupGate(t *testing.T, name string, bound float64, calls, items int, sides [2]func()) {
	t.Helper()
	const attempts, rounds = 3, 9
	perItem := func(d time.Duration) float64 { return float64(d) / float64(calls*items) }
	var twin, fast float64
	for attempt := 1; attempt <= attempts; attempt++ {
		var best [2]time.Duration
		for round := 0; round < rounds; round++ {
			for s, fn := range sides {
				t0 := time.Now()
				for c := 0; c < calls; c++ {
					fn()
				}
				if d := time.Since(t0); round == 0 || d < best[s] {
					best[s] = d
				}
			}
		}
		twin, fast = perItem(best[0]), perItem(best[1])
		t.Logf("%s, attempt %d, per item: %.3f ns against %.3f ns, speedup %.2fx", name, attempt, fast, twin, twin/fast)
		if twin >= bound*fast {
			return
		}
	}
	t.Errorf("%s: %.3f ns an item against %.3f ns, under %.1fx in each of %d attempts", name, fast, twin, bound, attempts)
}

// epilogueArms are the gate's arms for the score epilogues, the bound pass
// and the band scan: over a turn's 3 988 scores, the AVX-512 bodies of
// AddBaseBias32 and AddBase32 must each cost at most 1/1.3 of their Go
// loops, the bound pass of DotBounds32 at most 1/2 of its — alone, over the
// first upperDims of headDims head factors, and with its lower row, over all
// headDims — and OutsideBand at most 1/2 of its.
func epilogueArms(t *testing.T) {
	out, bias := epilogueBench()
	head, rest, rho, pb := boundBench(len(out), upperDims, headDims)
	pb16, low := pb[:upperDims], make([]float32, len(out))
	upper, lower, kept := bandBench(len(out))
	// Measured on a 2-vCPU VM with AVX-512 (a Xeon, family 6 model 207)
	// over three runs, per score: AddBaseBias32 0.19–0.22 ns against
	// 1.26–1.46 ns, AddBase32 0.15–0.16 ns against 1.23–1.33 ns; the bound
	// pass with its lower row, 32 head factors an item, 1.33–1.47 ns against
	// 33.6–39.6 ns, alone, 16 head factors, 0.72–0.81 ns against 14.9–18.8
	// ns; the band scan, about 5 % of the items outside the band, 0.15–0.19
	// ns against 1.29–1.53 ns. The bounds leave room for a busy neighbour.
	for _, arm := range []struct {
		name       string
		bound      float64
		twin, simd func()
	}{
		{"AddBaseBias32", 1.3, func() { addBaseBias32Generic(out, 0.5, bias) }, func() { AddBaseBias32(out, -0.5, bias) }},
		{"AddBase32", 1.3, func() { addBase32Generic(out, 0.5) }, func() { AddBase32(out, -0.5) }},
		{"bound pass", 2, func() { headBounds32Generic(out, nil, head, rest, pb16, rho, upperDims, 1.5, 0.25) }, func() { headBounds32(out, nil, head, rest, pb16, rho, upperDims, 1.5, 0.25) }},
		{"bound pass, two rows", 2, func() { headBounds32Generic(out, low, head, rest, pb, rho, upperDims, 1.5, 0.25) }, func() { headBounds32(out, low, head, rest, pb, rho, upperDims, 1.5, 0.25) }},
		{"band scan", 2, func() { outsideBandGeneric(upper, lower, 2, -4, 0, kept) }, func() { outsideBand(upper, lower, 2, -4, 0, kept) }},
	} {
		speedupGate(t, arm.name, arm.bound, 200, len(out), [2]func(){arm.twin, arm.simd})
	}
}

// bandBench is a band scan's input over n items: upper bounds drawn from a
// normal distribution and lower bounds 2 below them, so that the band
// (−4, 2) keeps about 95 % of the items inside it, as a certification's
// later blocks do, and room for the items it lists.
func bandBench(n int) (upper, lower []float32, out []types.ItemID) {
	rng := rand.New(rand.NewSource(47))
	upper, lower, out = make([]float32, n), make([]float32, n), make([]types.ItemID, n)
	for k := range upper {
		upper[k] = float32(rng.NormFloat64())
		lower[k] = upper[k] - 2
	}
	return upper, lower, out
}

// boundBench is a bound pass's input over n items: their h head factors,
// chunk by chunk, the first w in head and the others in rest, and tail
// norms, and a user's h head factors.
func boundBench(n, w, h int) (head, rest, rho, pb []float32) {
	rng := rand.New(rand.NewSource(48))
	padded := (n + headChunk - 1) / headChunk * headChunk
	head, rest, rho, pb = make([]float32, padded*w), make([]float32, padded*(h-w)), make([]float32, n), make([]float32, h)
	for k := range head {
		head[k] = float32(rng.NormFloat64())
	}
	for k := range rest {
		rest[k] = float32(rng.NormFloat64())
	}
	for k := range rho {
		rho[k] = float32(rng.ExpFloat64())
	}
	for k := range pb {
		pb[k] = float32(rng.NormFloat64())
	}
	return head, rest, rho, pb
}

// rowKernelBench is the benchmark universe's item block (4000 × 100) with a
// candidate-shaped index list: the catalog in order, minus a few rated items.
func rowKernelBench() (Block, []float32, []types.ItemID) {
	block, v := rowKernelBlock(rand.New(rand.NewSource(17)), 4000, 100)
	var list []types.ItemID
	for r := 0; r < block.Rows(); r++ {
		if r%400 != 7 {
			list = append(list, types.ItemID(r))
		}
	}
	return block, v, list
}

// dotCallLoop is the loop the factor models' ScoreUser32 ran before the row
// kernel: one range check, one Row and one Dot32x8 call per item.
func dotCallLoop(b Block, v []float32, list []types.ItemID, out []float32) {
	for k, r := range list {
		if int(r) < 0 || int(r) >= b.Rows() {
			out[k] = 0
			continue
		}
		out[k] = Dot32x8(v, b.Row(int(r)))
	}
}

func BenchmarkDotKernels(b *testing.B) {
	for _, dims := range []int{16, 40, 100} {
		rng := rand.New(rand.NewSource(13))
		a64 := randRow64(rng, dims)
		b64 := randRow64(rng, dims)
		a32, b32 := to32(a64), to32(b64)
		b.Run(fmt.Sprintf("Dot64/dims=%d", dims), func(b *testing.B) {
			var s float64
			for i := 0; i < b.N; i++ {
				s += Dot64(a64, b64)
			}
			_ = s
		})
		b.Run(fmt.Sprintf("Dot32x8/dims=%d", dims), func(b *testing.B) {
			var s float32
			for i := 0; i < b.N; i++ {
				s += Dot32x8(a32, b32)
			}
			_ = s
		})
	}
}

// rowKernelBlock builds a rows×dims block of random float32 values and a
// dims-wide vector to score it against.
func rowKernelBlock(rng *rand.Rand, rows, dims int) (Block, []float32) {
	data := make([]float32, rows*dims)
	for i := range data {
		data[i] = float32(rng.NormFloat64())
	}
	return Block{rows: rows, dims: dims, data: data}, to32(randRow64(rng, dims))
}

// rowKernelLists returns the index-list shapes the row kernel must handle
// over a block of the given row count: the candidate shape (ascending with
// gaps), the same reversed, duplicates, a single index and no index at all.
func rowKernelLists(rows int) map[string][]types.ItemID {
	var gaps, dups []types.ItemID
	for r := 0; r < rows; r++ {
		if r%5 != 2 && r%7 != 3 {
			gaps = append(gaps, types.ItemID(r))
		}
		dups = append(dups, types.ItemID(r/3), types.ItemID(rows-1))
	}
	reversed := make([]types.ItemID, len(gaps))
	for k, r := range gaps {
		reversed[len(gaps)-1-k] = r
	}
	return map[string][]types.ItemID{
		"gaps": gaps, "reversed": reversed, "duplicated": dups,
		"single": {types.ItemID(rows / 2)}, "empty": {},
	}
}

// TestDotRowsBitExact is the row kernel's parity contract: for every tail
// alignment of dims and every index-list shape, each score carries exactly
// the bits the pair kernel returns for that row — on the dispatched kernel
// against Dot32x8 and dispatchedDot, and on the portable one against
// dot32x8Generic — and nothing past len(rows) is written.
func TestDotRowsBitExact(t *testing.T) {
	const rows = 37
	const sentinel = float32(-12345)
	rng := rand.New(rand.NewSource(31))
	for dims := 1; dims <= 130; dims++ {
		b, v := rowKernelBlock(rng, rows, dims)
		for name, list := range rowKernelLists(rows) {
			for _, k := range []struct {
				name string
				rows func(out []float32)
				pair func(a, b []float32) float32
			}{
				{"dispatched", func(out []float32) { b.DotRows32x8(v, list, out) }, Dot32x8},
				{"portable", func(out []float32) { dotRows32x8Generic(v, b.data, list, out, rows) }, dot32x8Generic},
			} {
				out := make([]float32, len(list)+2)
				for i := range out {
					out[i] = sentinel
				}
				k.rows(out)
				for i, r := range list {
					if want := k.pair(v, b.Row(int(r))); out[i] != want {
						t.Fatalf("dims=%d %s %s: out[%d] (row %d) = %v, pair kernel gives %v", dims, name, k.name, i, r, out[i], want)
					}
					if want := dispatchedDot(v, b.Row(int(r))); k.name == "dispatched" && out[i] != want {
						t.Fatalf("dims=%d %s: out[%d] (row %d) = %v, its sum tree gives %v", dims, name, i, r, out[i], want)
					}
				}
				if out[len(list)] != sentinel || out[len(list)+1] != sentinel {
					t.Fatalf("dims=%d %s %s: wrote past len(rows)", dims, name, k.name)
				}
			}
		}
	}
}

// TestDotRowsRefusesBadInput pins the Go-side checks in front of the
// assembly: an index outside the block, a vector of the wrong width and a
// short out each panic before any score is written.
func TestDotRowsRefusesBadInput(t *testing.T) {
	const rows, dims = 9, 12
	const sentinel = float32(-12345)
	b, v := rowKernelBlock(rand.New(rand.NewSource(32)), rows, dims)
	for _, tc := range []struct {
		name string
		v    []float32
		list []types.ItemID
		out  int
	}{
		{"negative index", v, []types.ItemID{0, 1, -1, 2}, 4},
		{"index == rows", v, []types.ItemID{0, 1, rows}, 3},
		{"index past rows", v, []types.ItemID{1 << 30}, 1},
		{"short v", v[:dims-1], []types.ItemID{0, 1}, 2},
		{"long v", append(append([]float32(nil), v...), 1), []types.ItemID{0, 1}, 2},
		{"short out", v, []types.ItemID{0, 1, 2}, 2},
	} {
		out := make([]float32, tc.out)
		for i := range out {
			out[i] = sentinel
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: DotRows32x8 did not panic", tc.name)
				}
			}()
			b.DotRows32x8(tc.v, tc.list, out)
		}()
		for i, got := range out {
			if got != sentinel {
				t.Errorf("%s: out[%d] = %v written before the refusal", tc.name, i, got)
			}
		}
	}
}

// TestItemDots32 covers the factor models' entry to the row kernel:
// identifiers inside the item block score the pair kernel's bits, identifiers
// outside it — leading, trailing, adjacent, alone — score 0, on the
// dispatched kernel and on the portable one, and a short out is refused.
func TestItemDots32(t *testing.T) {
	const items, dims = 11, 20
	rng := rand.New(rand.NewSource(33))
	itemB, _ := rowKernelBlock(rng, items, dims)
	userB, _ := rowKernelBlock(rng, 3, dims)
	p := FactorPair{UserB: userB, ItemB: itemB}
	for _, list := range [][]types.ItemID{
		{}, {4}, {-1}, {items},
		{-3, 0, 1, items, items + 5, 7, 10, 2, -1},
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
	} {
		out := make([]float32, len(list))
		for i := range out {
			out[i] = -12345
		}
		p.ItemDots32(2, list, out)
		portable := make([]float32, len(list))
		dotRows32x8Generic(userB.Row(2), itemB.data, list, portable, items)
		for k, i := range list {
			want, wantPortable := float32(0), float32(0)
			if i >= 0 && int(i) < items {
				want = Dot32x8(userB.Row(2), itemB.Row(int(i)))
				wantPortable = dot32x8Generic(userB.Row(2), itemB.Row(int(i)))
			}
			if out[k] != want {
				t.Fatalf("list %v: out[%d] (item %d) = %v, want %v", list, k, i, out[k], want)
			}
			if portable[k] != wantPortable {
				t.Fatalf("list %v: portable kernel out[%d] (item %d) = %v, want %v", list, k, i, portable[k], wantPortable)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ItemDots32 with a short out did not panic")
		}
	}()
	p.ItemDots32(0, []types.ItemID{0, 1, 2}, make([]float32, 2))
}

// dot16Lanes is the AVX-512 row kernel's sum tree stated in Go, each
// operation rounded to float32 on its own: lane m of 16 sums the products of
// the elements ≡ m (mod 16) below the last multiple of 16; each whole quad
// past it adds to lanes 0–3; then (0–3 + 4–7) + (8–11 + 12–15) lane by lane,
// (0 + 2) + (1 + 3), and the elements past the last quad one at a time.
func dot16Lanes(a, b []float32) float32 {
	var lane [16]float32
	i := 0
	for ; i+16 <= len(a); i += 16 {
		for m := range lane {
			lane[m] += float32(a[i+m] * b[i+m])
		}
	}
	for ; i+4 <= len(a); i += 4 {
		for m := 0; m < 4; m++ {
			lane[m] += float32(a[i+m] * b[i+m])
		}
	}
	var q [4]float32
	for m := range q {
		q[m] = (lane[m] + lane[4+m]) + (lane[8+m] + lane[12+m])
	}
	s := (q[0] + q[2]) + (q[1] + q[3])
	for ; i < len(a); i++ {
		s += float32(a[i] * b[i])
	}
	return s
}

// dispatchedDot is the pair kernel Dot32x8 dispatches to, stated in Go:
// dot16Lanes where the CPU runs the AVX-512 body, dot32x8Generic elsewhere.
func dispatchedDot(a, b []float32) float32 {
	if useAVX512 {
		return dot16Lanes(a, b)
	}
	return dot32x8Generic(a, b)
}

// FuzzRowKernelMatchesPortable holds the dispatched row kernel and band scan
// to their Go statements over drawn shapes and values: a row length of 0–69
// factors, the vector, the block and the bound rows starting 0–15 elements
// past a 64-byte boundary, and each value read from raw — one of
// boundValues for an even selector byte, the float32 whose bits are the next
// four bytes for an odd one — so NaN, ±Inf, −0 and subnormal lanes meet.
// Every score of a block of three rows, and of indices outside it, carries
// dispatchedDot's bits (any NaN for a NaN); the band scan keeps
// outsideBandGeneric's items for a band drawn the same way; and neither
// writes outside its output.
func FuzzRowKernelMatchesPortable(f *testing.F) {
	f.Add(uint8(37), uint8(5), []byte{2, 6, 1, 0x7f, 0xc0, 0, 1, 10, 0, 3, 0x80, 0, 0, 0, 5, 0, 0, 0, 1})
	f.Add(uint8(16), uint8(0), []byte{1, 0, 0, 0x80, 0, 1, 0, 0, 0x80, 0x80, 4})
	f.Add(uint8(69), uint8(15), []byte{})
	vals := boundValues()
	f.Fuzz(func(t *testing.T, n, off uint8, raw []byte) {
		at := 0
		next := func() byte {
			b := raw[at%len(raw)]
			at++
			return b
		}
		draw := func() float32 {
			if len(raw) == 0 {
				return 1
			}
			if b := next(); b&1 == 0 {
				return vals[int(b>>1)%len(vals)]
			}
			return math.Float32frombits(uint32(next())<<24 | uint32(next())<<16 | uint32(next())<<8 | uint32(next()))
		}
		dims, start := int(n)%70, int(off)%16
		const rows, sentinel = 3, float32(-12345)
		vBuf, vlo := misaligned(dims, start, float32(0))
		dBuf, dlo := misaligned(rows*dims, (start+7)%16, float32(0))
		v, data := vBuf[vlo:vlo+dims], dBuf[dlo:dlo+rows*dims]
		for _, row := range [][]float32{v, data} {
			for k := range row {
				row[k] = draw()
			}
		}
		b := Block{rows: rows, dims: dims, data: data}
		list := []types.ItemID{2, 0, -1, 1, rows, 2}
		outBuf, olo := misaligned(len(list), start, sentinel)
		dotRows32x8(v, data, list, outBuf[olo:olo+len(list)], rows)
		for k, r := range list {
			want := float32(0)
			if r >= 0 && int(r) < rows {
				want = dispatchedDot(v, b.Row(int(r)))
			}
			if got := outBuf[olo+k]; !sameBits(got, want) {
				t.Fatalf("%d factors at offset %d: score %d (row %d) %v (%#x), its Go statement %v (%#x)", dims, start, k, r, got, math.Float32bits(got), want, math.Float32bits(want))
			}
		}
		if !untouched(outBuf, olo, olo+len(list), sentinel) {
			t.Fatalf("%d factors at offset %d: the row kernel wrote outside its scores", dims, start)
		}

		uBuf, ulo := misaligned(dims, start, float32(0))
		lBuf, llo := misaligned(dims, (start+3)%16, float32(0))
		upper, lower := uBuf[ulo:ulo+dims], lBuf[llo:llo+dims]
		for k := range upper {
			upper[k], lower[k] = draw(), draw()
		}
		top, bottom := draw(), draw()
		kept, want := make([]types.ItemID, dims+1), make([]types.ItemID, dims)
		kept[dims] = -7
		k := outsideBand(upper, lower, top, bottom, 11, kept[:dims])
		if wk := outsideBandGeneric(upper, lower, top, bottom, 11, want); k != wk || !slices.Equal(kept[:k], want[:wk]) || kept[dims] != -7 {
			t.Fatalf("%d items at offset %d, band (%v, %v): scan %v, Go loop %v", dims, start, bottom, top, kept[:k], want[:wk])
		}
	})
}

func BenchmarkDotRows(b *testing.B) {
	block, v, list := rowKernelBench()
	out := make([]float32, len(list))
	b.Run("Dot32x8-call-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dotCallLoop(block, v, list, out)
		}
	})
	b.Run("DotRows32x8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			block.DotRows32x8(v, list, out)
		}
	})
	b.Run("portable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dotRows32x8Generic(v, block.data, list, out, block.Rows())
		}
	})
}
