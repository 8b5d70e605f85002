package core

// The gain scan against its statement through gainOf: the index it returns
// for every hostile input, the lists a walk built on it selects, and — where
// the CPU runs AVX-512 — that it is faster than its Go twin.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"ganc/internal/recommender"
	"ganc/internal/types"
)

// rangeMap is the float32 map the normaliser builds for a user whose catalog
// scores range over [lo, hi]: min lo, scale the reciprocal of the truncated
// span, the identity when the span is 0.
func rangeMap(lo, hi float32) recommender.MinMax[float32] {
	norm := recommender.NewNormalizedScorer(tableScorer32{tableScorer{scores: [][]float64{{float64(lo), float64(hi)}}}}, 2)
	return norm.AccuracyScores32(0, make([]float32, 2))
}

var (
	nan32    = float32(math.NaN())
	inf32    = float32(math.Inf(1))
	negZero  = float32(math.Copysign(0, -1))
	scanMaps = []recommender.MinMax[float32]{
		recommender.Identity[float32](),
		rangeMap(0.25, 0.75), // (raw−0.25)·2: 0.25 and 0.75 map to exactly 0 and 1
		rangeMap(-1, 3),
		rangeMap(-2.5, 1e-3),
		rangeMap(0, inf32),      // scale 0
		rangeMap(-inf32, inf32), // raw−min is +Inf, times a scale of 0: NaN
		rangeMap(nan32, 1),      // a NaN range
	}
	scanThetas = []float32{0, negZero, 0.25, 0.5, 1, nan32, 1.5, -inf32}
	scanCovs   = []float32{0, negZero, 1, 0.5, 0.70710677, 1e-30, nan32, inf32, -1}
)

// scanRaws is the pool raw scores are drawn from under m: NaN, the
// infinities, both zeros, the extremes, and the clamp's edges — raw scores
// mapping to exactly 0 and exactly 1 and their neighbours either side.
func scanRaws(m recommender.MinMax[float32]) []float32 {
	raws := []float32{nan32, inf32, -inf32, 0, negZero, 1, -1, 0.5, math.SmallestNonzeroFloat32, math.MaxFloat32, -math.MaxFloat32}
	min, scale := m.Affine()
	edge := func(r float32) {
		raws = append(raws, r, math.Nextafter32(r, -inf32), math.Nextafter32(r, inf32))
	}
	edge(min)
	if one := min + 1/scale; !math.IsInf(float64(one), 0) && !math.IsNaN(float64(one)) {
		for step := 0; step < 4 && (one-min)*scale < 1; step++ {
			one = math.Nextafter32(one, inf32)
		}
		edge(one)
	}
	return raws
}

// TestGainScanMatchesGeneric holds gainScan to gainScanGeneric — the items
// they keep, and no write past out[:len(raw)] — over every map, θ and run
// length 0–9 and either side of one, two and three 16-item blocks, each run
// starting at every offset 0–3 of a larger buffer, raw
// scores and coverage drawn from hostile pools, against bars of −Inf, +Inf,
// NaN, both zeros, the clamp's ends and the gain of every item of the run —
// a tie, which must be kept — and that what they keep is exactly the items
// whose gain reaches the bar, numbered from first.
func TestGainScanMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	edges := 0
	for mi, m := range scanMaps {
		raws := scanRaws(m)
		for _, theta := range scanThetas {
			for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 47, 48, 49} {
				for off := 0; off < 4; off++ {
					for trial := 0; trial < 6; trial++ {
						rawBuf, covBuf := make([]float32, off+n), make([]float32, off+n)
						for k := range rawBuf {
							rawBuf[k], covBuf[k] = raws[rng.Intn(len(raws))], scanCovs[rng.Intn(len(scanCovs))]
						}
						raw, cov := rawBuf[off:], covBuf[off:]
						bars := []float32{-inf32, inf32, nan32, 0, negZero, 1, 0.5}
						for k := range raw {
							bars = append(bars, gainOf(raw[k], m, theta, cov[k]))
							if a := m.At(raw[k]); a == 0 || a == 1 {
								edges++
							}
						}
						first := types.ItemID(rng.Intn(1000))
						for b, bar := range bars {
							got, want := make([]types.ItemID, off+n+1), make([]types.ItemID, n)
							got[off+n] = -7
							k := gainScan(raw, cov, m, theta, bar, first, got[off:off+n], b%2 == 0)
							if wk := gainScanGeneric(raw, cov, m, theta, bar, first, want); k != wk || !slices.Equal(got[off:off+k], want[:k]) || got[off+n] != -7 {
								t.Fatalf("map %d θ %v, run of %d at offset %d, bar %v: scan kept %d %v, gainOf's items %d %v (raw %v cov %v)", mi, theta, n, off, bar, k, got[off:off+n+1], wk, want, raw, cov)
							}
							var reach []types.ItemID
							for j := range raw {
								if g := gainOf(raw[j], m, theta, cov[j]); !(g < bar) {
									reach = append(reach, first+types.ItemID(j))
								}
							}
							if !slices.Equal(want[:k], reach) {
								t.Fatalf("map %d θ %v, raw %v cov %v, bar %v: kept %v, the items reaching the bar are %v", mi, theta, raw, cov, bar, want[:k], reach)
							}
							if tie := b - 7; tie >= 0 && !slices.Contains(want[:k], first+types.ItemID(tie)) {
								t.Fatalf("map %d θ %v, raw %v cov %v: item %d ties the bar %v and the scan dropped it", mi, theta, raw, cov, tie, bar)
							}
						}
					}
				}
			}
		}
	}
	if edges == 0 {
		t.Fatal("no raw score mapped to a clamp edge")
	}
}

// gainScanGeneric is gainScan item by item: first+k for every item k of raw
// whose gain, gainOf's, reaches bar, written to out in order; it returns how
// many it wrote and writes nothing else.
func gainScanGeneric(raw, cov []float32, m recommender.MinMax[float32], theta, bar float32, first types.ItemID, out []types.ItemID) int {
	cov = cov[:len(raw)]
	n := 0
	for k, s := range raw {
		if g := gainOf(s, m, theta, cov[k]); !(g < bar) {
			out[n] = first + types.ItemID(k)
			n++
		}
	}
	return n
}

// listScorer is the list body a warm walk rescores its kept items through:
// the exact scores, by item, and the items it was asked for.
type listScorer struct {
	scores []float32
	asked  []types.ItemID
}

func (s *listScorer) Score(_ types.UserID, i types.ItemID) float64 { return float64(s.scores[i]) }
func (s *listScorer) Name() string                                 { return "list" }
func (s *listScorer) ScoreUser32(_ types.UserID, items []types.ItemID, out []float32) {
	if len(out) != len(items) {
		panic("ScoreUser32: len(out) != len(items)")
	}
	for k, i := range items {
		out[k] = s.scores[i]
	}
	s.asked = append(s.asked, items...)
}

// boundsOf is a bound row of raw: each score itself, NaN, or the score plus a
// slack that is sometimes huge, never below it; a NaN score's bound is NaN.
func boundsOf(rng *rand.Rand, raw []float32) []float32 {
	bound := slices.Clone(raw)
	for i, s := range raw {
		switch rng.Intn(5) {
		case 0:
			bound[i] = nan32
		case 1:
			bound[i] = s + float32(rng.ExpFloat64())
		case 2:
			bound[i] = s + float32(rng.ExpFloat64()*1e30)
		case 3:
			bound[i] = math.Nextafter32(s, inf32)
		}
	}
	return bound
}

// checkBoundedWalk holds boundedWalk to walk over raw: cold, over the scores
// themselves, and — where the turn would take the bound row (an increasing
// map, θ in [0, 1]) — bounded, over bound with raw as the list body, once
// warm and once as a first touch leaves it, with the scores written in for
// a random ascending list of items, rated ones among them. A bounded walk
// must also have asked for each item at most once, never a rated one nor one
// of the list, and have scored every item it returned.
func checkBoundedWalk(t *testing.T, label string, raw, bound []float32, m recommender.MinMax[float32], theta float32, cov []float32, rated []types.ItemID, n int) {
	t.Helper()
	sc := new(sweepScratch)
	want := walk(raw, m, theta, cov, rated, n)
	if got := boundedWalk(slices.Clone(raw), nil, nil, 0, m, theta, cov, rated, n, sc); !slices.Equal(got, want) || (got == nil) != (want == nil) {
		t.Fatalf("%s n %d: cold bounded walk %v, walk %v", label, n, got, want)
	}
	if !boundable(m, theta) {
		return
	}
	rng := rand.New(rand.NewSource(int64(len(raw)*131 + n)))
	var done []types.ItemID
	certified := slices.Clone(bound)
	for i := range raw {
		if rng.Intn(4) == 0 {
			done = append(done, types.ItemID(i))
			certified[i] = raw[i]
		}
	}
	for _, arm := range []struct {
		name string
		row  []float32
		done []types.ItemID
	}{{"warm", bound, nil}, {"first touch", certified, done}} {
		list := &listScorer{scores: raw}
		got := boundedWalk(slices.Clone(arm.row), list, arm.done, 0, m, theta, cov, rated, n, sc)
		if !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("%s n %d: %s bounded walk %v, walk %v", label, n, arm.name, got, want)
		}
		seen := map[types.ItemID]bool{}
		for _, i := range list.asked {
			if seen[i] || slices.Contains(rated, i) || slices.Contains(arm.done, i) {
				t.Fatalf("%s n %d: the %s walk asked for item %d twice, rated or scored (asked %v, rated %v, scored %v)", label, n, arm.name, i, list.asked, rated, arm.done)
			}
			seen[i] = true
		}
		for _, i := range got {
			if !seen[i] && !slices.Contains(arm.done, i) {
				t.Fatalf("%s n %d: the %s walk returned item %d without scoring it", label, n, arm.name, i)
			}
		}
	}
}

// boundable reports whether a turn under m and θ may take a bound row: the
// conditions recommender.NormalizedScorer.AccuracyBounds32 and scoreTurn
// check.
func boundable(m recommender.MinMax[float32], theta float32) bool {
	min, scale := m.Affine()
	return theta >= 0 && theta <= 1 && min > -inf32 && min < inf32 && scale > 0 && scale < inf32
}

// TestScanWalkMatchesWalk: a float32 walk beside a float32 row selects,
// block by block through the gain scan, the list the item-by-item walk
// selects — cold over the scores, bounded over bounds of them — for every map
// and θ, with scores from a palette small enough that gains tie at every rank
// and NaN and ±Inf among them, a rated run that skips random items, catalogs
// of one block and of several, and n from 0 to past the candidates.
func TestScanWalkMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	palette := []float32{0, 0.25, 0.25, 0.5, 0.75, 1, 2.5, -3, 1e-3, nan32, inf32, -inf32, negZero}
	for trial := 0; trial < 40; trial++ {
		items := 1 + rng.Intn(70)
		if trial%4 == 0 {
			items = 1 + rng.Intn(4*recommender.LastBlock)
		}
		raw, cov := make([]float32, items), make([]float32, items)
		for i := range raw {
			raw[i], cov[i] = palette[rng.Intn(len(palette))], scanCovs[rng.Intn(len(scanCovs))]
		}
		bound := boundsOf(rng, raw)
		var rated []types.ItemID
		for i := 0; i < items; i++ {
			if rng.Intn(5) == 0 {
				rated = append(rated, types.ItemID(i))
			}
		}
		for mi, m := range scanMaps {
			for _, theta := range scanThetas {
				for _, n := range []int{0, 1, 3, 10, items + 5} {
					checkBoundedWalk(t, fmt.Sprintf("trial %d map %d θ %v", trial, mi, theta), raw, bound, m, theta, cov, rated, n)
				}
			}
		}
	}
}

// FuzzGainScanMatchesWalk: hostile bytes for the raw scores, the coverage
// row, θ, the user's range and the bar give the same items from the scan as
// from gainScanGeneric, from every start 0–3 of the run, and the same list from a
// bounded walk, cold and warm, as from the item-by-item walk. The first 16
// bytes are the range's two ends, θ and the bar; each further 8 are one
// item's raw score and c(i). The bounds are the scores widened by a slack
// drawn from the bytes.
func FuzzGainScanMatchesWalk(f *testing.F) {
	seed := func(vals ...float32) []byte {
		b := make([]byte, 4*len(vals))
		for k, v := range vals {
			binary.LittleEndian.PutUint32(b[4*k:], math.Float32bits(v))
		}
		return b
	}
	f.Add(seed(0.25, 0.75, 0.5, -inf32, 0.25, 1, 0.75, 0.5, 0.5, nan32, 1, 0, negZero, 1))
	f.Add(seed(-1, 3, 0.3, 0.5, 3, 0.2, -1, 1, 1, 1, 0, 0, 2, 0.5, nan32, nan32))
	f.Add(seed(0, inf32, nan32, 0, inf32, 1, -inf32, 0, 0, 0))
	f.Add(seed(1, 1, 0, 0.5))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		word := func(k int) float32 {
			if 4*k+4 > len(data) {
				return 0
			}
			return math.Float32frombits(binary.LittleEndian.Uint32(data[4*k:]))
		}
		m := rangeMap(word(0), word(1))
		theta, bar := word(2), word(3)
		items := 0
		if len(data) > 16 {
			items = min((len(data)-16)/8, 3*recommender.LastBlock)
		}
		raw, cov := make([]float32, items), make([]float32, items)
		for i := range raw {
			raw[i], cov[i] = word(4+2*i), word(5+2*i)
		}
		for off := 0; off <= min(3, items); off++ {
			got, want := make([]types.ItemID, items-off), make([]types.ItemID, items-off)
			if k, wk := gainScan(raw[off:], cov[off:], m, theta, bar, 3, got, off%2 == 0), gainScanGeneric(raw[off:], cov[off:], m, theta, bar, 3, want); k != wk || !slices.Equal(got[:k], want[:k]) {
				t.Fatalf("from %d: scan kept %d %v, gainOf's items %d %v (raw %v cov %v θ %v bar %v)", off, k, got, wk, want, raw, cov, theta, bar)
			}
		}
		bound := slices.Clone(raw)
		for i := range bound {
			if slack := word(4 + 2*((i+1)%max(items, 1))); slack > 0 {
				bound[i] += slack
			}
		}
		var rated []types.ItemID
		for i := 0; i < items; i += 5 {
			rated = append(rated, types.ItemID(i))
		}
		for _, n := range []int{1, 4, items + 1} {
			checkBoundedWalk(t, "fuzz", raw, bound, m, theta, cov, rated, n)
		}
	})
}

// TestKernelSpeedupGate is core's arm of the CI kernel regression gate: the
// gain scan, linalg.GainScan's AVX-512 body, must cost at most 1/2.5 of its
// Go twin per item over a turn's catalog (3 988 items), in two arms: a cold
// walk's steady state, where the bar is above every gain and the scan, told
// few items pass, skips each empty block; and a warm walk's bound row, where
// a fifth of the items pass and the scan stores every block without a
// branch. Alternating rounds, each side keeping its best, and a losing
// reading measured again. Skipped under -race and -short, and where the CPU
// runs no AVX-512 (the scan is then its Go twin): linalg's
// TestAVX512SelectionMatchesCPU holds the body's selection to the avx512f
// flag this reads.
func TestKernelSpeedupGate(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("kernel ratio gate is meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("skipping kernel ratio gate in -short mode")
	}
	if !cpuListsAVX512(t) {
		t.Skip("this CPU runs no AVX-512: the gain scan is its Go twin on " + runtime.GOARCH)
	}
	raw, cov, m := scanBench()
	out := make([]types.ItemID, len(raw))
	const theta = 0.3
	gains := make([]float32, len(raw))
	for k := range raw {
		gains[k] = gainOf(raw[k], m, theta, cov[k])
	}
	slices.Sort(gains)
	const bound = 2.5
	var sink int
	// Measured on a 2-vCPU VM with AVX-512 over three runs, per item: the
	// steady state 0.16–0.22 ns against the twin's 2.6–3.5 ns, a fifth kept
	// 0.24–0.26 ns against 5.6–6.5 ns. The bound leaves room for a busy
	// neighbour.
	for _, arm := range []struct {
		name   string
		bar    float32
		sparse bool
	}{
		{"steady state", 2, true},
		{"a fifth kept", gains[len(gains)*4/5], false},
	} {
		sides := [2]func(){
			func() { sink += gainScanGeneric(raw, cov, m, theta, arm.bar, 0, out) },
			func() { sink += gainScan(raw, cov, m, theta, arm.bar, 0, out, arm.sparse) },
		}
		const attempts, rounds, calls = 3, 9, 200
		perItem := func(d time.Duration) float64 { return float64(d) / float64(calls*len(raw)) }
		var twin, scan float64
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
			twin, scan = perItem(best[0]), perItem(best[1])
			t.Logf("%s attempt %d, per item: Go twin %.3f ns, gain scan %.3f ns, speedup %.2fx", arm.name, attempt, twin, scan, twin/scan)
			if twin >= bound*scan {
				break
			}
			if attempt == attempts {
				t.Errorf("%s: the gain scan costs %.3f ns an item, its Go twin %.3f ns: under %.1fx in each of %d attempts (sink %d)", arm.name, scan, twin, bound, attempts, sink)
			}
		}
	}
}

// cpuListsAVX512 reports whether /proc/cpuinfo lists the avx512f flag on
// linux/amd64; it skips t where there are no flags to read.
func cpuListsAVX512(t *testing.T) bool {
	t.Helper()
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("the CPU's flags are read from /proc/cpuinfo on linux/amd64")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no CPU flags to read: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			return slices.Contains(strings.Fields(flags), "avx512f")
		}
	}
	t.Skip("/proc/cpuinfo lists no flags")
	return false
}

// scanBench is a turn's catalog on the benchmark universe: 3 988 raw scores
// over a range of [−2, 2] and a Dyn coverage row.
func scanBench() (raw, cov []float32, m recommender.MinMax[float32]) {
	rng := rand.New(rand.NewSource(53))
	raw, cov = make([]float32, 3988), make([]float32, 3988)
	for i := range raw {
		raw[i] = float32(rng.Float64()*4 - 2)
		cov[i] = float32(invSqrtFreq(rng.Intn(50)))
	}
	return raw, cov, rangeMap(-2, 2)
}

func BenchmarkGainScan(b *testing.B) {
	raw, cov, m := scanBench()
	out := make([]types.ItemID, len(raw))
	for _, bar := range []float32{2, 0.5} {
		b.Run(fmt.Sprintf("scan/bar=%v", bar), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gainScan(raw, cov, m, 0.3, bar, 0, out, bar > 1)
			}
		})
		b.Run(fmt.Sprintf("portable/bar=%v", bar), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gainScanGeneric(raw, cov, m, 0.3, bar, 0, out)
			}
		})
	}
}
