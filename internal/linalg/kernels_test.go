package linalg

import (
	"fmt"
	"math"
	"math/rand"
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

// The dispatched Dot32x8 (SSE2 asm on amd64) must agree with its portable
// generic implementation for every tail alignment: bit-identity is not
// required (different summation trees), agreement within float32 rounding
// is.
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

// TestKernelSpeedupGate is the CI kernel regression gate (ISSUE 7 satellite
// 5): Dot32x8 must beat the scalar float64 baseline by ≥2x on the serving
// factor width, and the row kernel must cost no more per row than the
// Dot32x8 call loop it replaced. Skipped under -race (instrumentation
// distorts the ratios) and -short.
func TestKernelSpeedupGate(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("kernel ratio gate is meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("skipping kernel ratio gate in -short mode")
	}
	const dims = 40 // RSVD's serving factor count
	rng := rand.New(rand.NewSource(11))
	a64 := randRow64(rng, dims)
	b64 := randRow64(rng, dims)
	a, b := to32(a64), to32(b64)

	var sink64 float64
	base := testing.Benchmark(func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			sink64 += Dot64(a64, b64)
		}
	})
	var sink32 float32
	fast := testing.Benchmark(func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			sink32 += Dot32x8(a, b)
		}
	})
	if sink64 == 0 && sink32 == 0 {
		t.Log("sinks both zero (keeps the loops live)")
	}
	ratio := float64(base.NsPerOp()) / float64(fast.NsPerOp())
	t.Logf("Dot64 %d ns/op, Dot32x8 %d ns/op, speedup %.2fx", base.NsPerOp(), fast.NsPerOp(), ratio)
	if ratio < 2.0 {
		t.Fatalf("Dot32x8 speedup %.2fx over scalar float64, want ≥2x", ratio)
	}

	// Second ratio: one row-kernel call over a candidate-shaped index list of
	// a serving-sized item block against the per-item Dot32x8 call loop the
	// bulk scorers ran before it; the kernel exists to be cheaper per row.
	// The margin is tens of per cent, not the first ratio's multiple, so the
	// two sides alternate in short rounds and each keeps its best one: a busy
	// neighbour slows a round, it never speeds one up.
	block, v, list := rowKernelBench()
	out := make([]float32, len(list))
	sides := [2]func(){
		func() { dotCallLoop(block, v, list, out) },
		func() { block.DotRows32x8(v, list, out) },
	}
	// Both sides go memory-bound under a busy neighbour and then read within
	// a per cent of each other (alone the kernel wins by a fifth), so a losing
	// reading is measured again and only three losses in a row fail.
	const attempts, rounds, calls = 3, 9, 100
	perRow := func(d time.Duration) float64 { return float64(d) / float64(calls*len(list)) }
	var loop, rows float64
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
		loop, rows = perRow(best[0]), perRow(best[1])
		t.Logf("attempt %d, per row: Dot32x8 call loop %.2f ns, DotRows32x8 %.2f ns, speedup %.2fx", attempt, loop, rows, loop/rows)
		if rows <= loop {
			return
		}
	}
	t.Fatalf("DotRows32x8 costs %.2f ns per row, the Dot32x8 call loop it replaced %.2f ns, in each of %d attempts", rows, loop, attempts)
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
// against Dot32x8 and on the portable one against dot32x8Generic — and
// nothing past len(rows) is written.
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
				{"portable", func(out []float32) { dotRows32x8Generic(v, b.data, list, out) }, dot32x8Generic},
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
// outside it — leading, trailing, adjacent, alone — score 0, and a short out
// is refused.
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
		for k, i := range list {
			want := float32(0)
			if i >= 0 && int(i) < items {
				want = Dot32x8(userB.Row(2), itemB.Row(int(i)))
			}
			if out[k] != want {
				t.Fatalf("list %v: out[%d] (item %d) = %v, want %v", list, k, i, out[k], want)
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
			dotRows32x8Generic(v, block.data, list, out)
		}
	})
}
