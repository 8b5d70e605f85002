package core

// The property test of the fused walk (scoreTurn → turn.top, and
// firstOutranks for SurvivesGrowth): a turn is held, list for list and verdict for
// verdict, to the stages it ran as before they were one loop — enumerate the
// candidates, normalise, clamp, clamp again, combine, select — written out
// longhand below and kept here as the oracle.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"ganc/internal/dataset"
	"ganc/internal/longtail"
	"ganc/internal/recommender"
	"ganc/internal/types"
)

// tableScorer scores from a table, so a test chooses every raw score. An item
// past a user's row is one the model has no factor row for: it scores oob, as
// a factor model scores an item the catalog grew by after training.
type tableScorer struct {
	scores [][]float64
	oob    float64
}

func (s tableScorer) Score(u types.UserID, i types.ItemID) float64 {
	if int(i) >= len(s.scores[u]) {
		return s.oob
	}
	return s.scores[u][i]
}
func (s tableScorer) Name() string { return "table" }

// tableScorer32 adds the float32 bulk body the factor models have.
type tableScorer32 struct{ tableScorer }

func (s tableScorer32) ScoreUser32(u types.UserID, items []types.ItemID, out []float32) {
	for k, i := range items {
		out[k] = float32(s.Score(u, i))
	}
}

// stagedRange is the normaliser's scan of a user's catalog scores: the first
// sets both extremes, whatever it is.
func stagedRange(scores []float64) (min, max float64) {
	for k, s := range scores {
		if k == 0 || s < min {
			min = s
		}
		if k == 0 || s > max {
			max = s
		}
	}
	return min, max
}

func stagedClamp[T float32 | float64](scores []T) {
	for k, v := range scores {
		if v < 0 {
			scores[k] = 0
		} else if v > 1 {
			scores[k] = 1
		}
	}
}

// stagedNormalise64 is the float64 min–max loop: divide by the span.
func stagedNormalise64(scores []float64, min, max float64) {
	span := max - min
	for k := range scores {
		if span == 0 {
			scores[k] = 0
			continue
		}
		scores[k] = (scores[k] - min) / span
	}
	stagedClamp(scores)
}

// stagedNormalise32 is the float32 min–max loop: multiply by the reciprocal
// of the truncated span.
func stagedNormalise32(scores []float32, min, max float64) {
	span := max - min
	min32, inv32 := float32(min), 1/float32(span)
	for k := range scores {
		if span == 0 {
			scores[k] = 0
			continue
		}
		scores[k] = (scores[k] - min32) * inv32
	}
	stagedClamp(scores)
}

// stagedCombine is the combine loop, each product rounded to T before the sum
// (no target fuses them), as gainOf defines the gain.
func stagedCombine[T float32 | float64](gains []T, theta float64, covs []float64) {
	t := T(theta)
	a := 1 - t
	for k := range gains {
		gains[k] = T(a*gains[k]) + T(t*T(covs[k]))
	}
}

func stagedWorse[T float32 | float64](item types.ItemID, score T, than types.ItemID, thanScore T) bool {
	return score < thanScore || (score == thanScore && item > than)
}

// stagedSelect is the selection as it stood: a heap seeded with the first n
// candidates, one comparison against its root for each of the rest, the
// survivors put in order by insertion.
func stagedSelect[T float32 | float64](cand []types.ItemID, gains []T, n int) types.TopNSet {
	if n <= 0 {
		return nil
	}
	if n > len(cand) {
		n = len(cand)
	}
	type entry struct {
		item types.ItemID
		gain T
	}
	worse := func(a, b entry) bool { return stagedWorse(a.item, a.gain, b.item, b.gain) }
	h := make([]entry, n)
	for k := range h {
		h[k] = entry{cand[k], gains[k]}
		for i := k; i > 0 && worse(h[i], h[(i-1)/2]); i = (i - 1) / 2 {
			h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
		}
	}
	for k := n; k < len(cand); k++ {
		if e := (entry{cand[k], gains[k]}); worse(h[0], e) {
			h[0] = e
			for i := 0; ; {
				least := 2*i + 1
				if least >= len(h) {
					break
				}
				if least+1 < len(h) && worse(h[least+1], h[least]) {
					least++
				}
				if !worse(h[least], h[i]) {
					break
				}
				h[i], h[least] = h[least], h[i]
				i = least
			}
		}
	}
	for i := 1; i < len(h); i++ {
		e := h[i]
		j := i - 1
		for ; j >= 0 && worse(h[j], e); j-- {
			h[j+1] = h[j]
		}
		h[j+1] = e
	}
	set := make(types.TopNSet, len(h))
	for k, e := range h {
		set[k] = e.item
	}
	return set
}

func stagedFirstOutranksRest[T float32 | float64](cand []types.ItemID, gains []T) bool {
	for k := 1; k < len(cand); k++ {
		if !stagedWorse(cand[k], gains[k], cand[0], gains[0]) {
			return false
		}
	}
	return true
}

// stagedCandidates is the enumeration stage: every item of the catalog that
// rated does not name, in ascending order, found by set membership.
func stagedCandidates(rated []types.ItemID, numItems int) []types.ItemID {
	seen := make(map[types.ItemID]bool, len(rated))
	for _, r := range rated {
		seen[r] = true
	}
	var cand []types.ItemID
	for i := types.ItemID(0); int(i) < numItems; i++ {
		if !seen[i] {
			cand = append(cand, i)
		}
	}
	return cand
}

// fusedUniverse is a train set of users × items in which user u has rated
// item u, the last user has rated every item, and a score table over it drawn
// from a palette small enough that gains tie, with the values a broken model
// produces mixed in: user 0 scores every item the same (a span of 0), users 1
// and 2 score finite values only, the rest see NaN and ±Inf too. The table is
// modelItems wide: a catalog grown past it scores the rest out of range.
func fusedUniverse(rng *rand.Rand, users, items, modelItems int) (*dataset.Dataset, tableScorer) {
	ratings := []types.Rating{{User: 0, Item: types.ItemID(items - 1), Value: 3}}
	for u := 0; u < users; u++ {
		ratings = append(ratings, types.Rating{User: types.UserID(u), Item: types.ItemID(u), Value: 4})
	}
	for i := 0; i < items; i++ {
		ratings = append(ratings, types.Rating{User: types.UserID(users - 1), Item: types.ItemID(i), Value: 2})
	}
	palette := []float64{0, 0.25, 0.25, 0.5, 0.5, 1, 2.5, -3, 1e-3, math.NaN(), math.Inf(1), math.Inf(-1)}
	table := make([][]float64, users)
	for u := range table {
		table[u] = make([]float64, modelItems)
		for i := range table[u] {
			switch {
			case u == 0:
				table[u][i] = 2.5
			case u <= 2:
				table[u][i] = palette[rng.Intn(9)]
			default:
				table[u][i] = palette[rng.Intn(len(palette))]
			}
		}
	}
	return dataset.FromRatings("fused", ratings), tableScorer{scores: table, oob: 0.5}
}

// withStrays is a sorted rated run as a turn may be handed one: every
// identifier twice, and identifiers at and past the catalog's end after them.
func withStrays(rated []types.ItemID, numItems int) []types.ItemID {
	var out []types.ItemID
	for _, r := range rated {
		out = append(out, r, r)
	}
	return append(out, types.ItemID(numItems), types.ItemID(numItems), types.ItemID(numItems+7))
}

// statCoverageOf is the Stat coverage recommender of a train set whose items
// have the given rating counts.
func statCoverageOf(counts []int) *StatCoverage {
	scores := make([]float64, len(counts))
	for i, c := range counts {
		scores[i] = invSqrtFreq(c)
	}
	return &StatCoverage{scores: scores}
}

// allocatedBy is the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFusedWalkMatchesStagedOracle: over random raw scores (NaN, ±Inf, a span
// of 0, ties at every rank), the walk returns the staged oracle's list over
// the user's candidates, and firstOutranks its verdict over the item lists
// SurvivesGrowth passes — in float32 over a float32 bulk body, in float32 over
// truncated float64 scores, and in float64 (OSLG's sequential phase); under
// Dyn (its row), Stat (its static row) and the Rand hash stand-in (asked in
// bulk and one candidate at a time); for the sorted list SurvivesGrowth
// passes and unsorted ones, in which an item tying the bar may carry a
// smaller identifier than the entry it ties — the case the walk's
// `gain < bar` skip must let through; for n from 0 to past the candidates.
// The walk's edge cases ride along: a rated run holding duplicates and
// identifiers at or past the catalog (withStrays), a user who rated every
// item, a user whose scores span 0, n far above the candidate count (the heap
// is sized by the candidates: a heap sized by n would allocate megabytes),
// and on odd trials a catalog grown past the model's items, which score the
// out-of-range fallback.
func TestFusedWalkMatchesStagedOracle(t *testing.T) {
	const users, items = 7, 48
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 8; trial++ {
		modelItems := items
		if trial%2 == 1 {
			modelItems = items - 6
		}
		train, table := fusedUniverse(rng, users, items, modelItems)
		prefs := longtail.Random(users, int64(trial))
		prefs.Values[1] = 0 // accuracy alone ranks: ties wherever the palette repeats
		counts := make([]int, items)
		for i := range counts {
			counts[i] = rng.Intn(4)
		}
		hash := hashCoverage{seed: uint64(trial)}
		dynAt := func(_ types.UserID, i types.ItemID) float64 { return 1 / math.Sqrt(float64(counts[i])+1) }
		coverages := map[string]struct {
			crec CoverageRecommender
			at   func(u types.UserID, i types.ItemID) float64
		}{
			"Dyn":      {NewDynCoverageFrom(counts), dynAt},
			"Stat":     {statCoverageOf(counts), dynAt},
			"Hash":     {&hash, hash.CoverageScore},
			"HashBulk": {&hashCoverageBulk{hash}, hash.CoverageScore},
		}
		for covName, cov := range coverages {
			for _, inner := range []recommender.Scorer{table, tableScorer32{table}} {
				_, has32 := inner.(recommender.BulkScorer32)
				for _, exact := range []bool{false, true} {
					norm := recommender.NewNormalizedScorer(inner, items)
					g, err := New(train, norm, prefs, cov.crec, Config{N: 5})
					if err != nil {
						t.Fatal(err)
					}
					var state coverage // where the callers of a turn read a Dyn state
					if dyn, ok := cov.crec.(*DynCoverage); ok {
						state = dyn.frozen(!exact)
					}
					for u := types.UserID(0); int(u) < users; u++ {
						for _, strays := range []bool{false, true} {
							rated := train.UserItemsSorted(u)
							if strays {
								rated = withStrays(rated, items)
							}
							label := fmt.Sprintf("trial %d %s inner32=%v exact=%v user %d strays=%v", trial, covName, has32, exact, u, strays)
							// The accuracy stage as it was staged: the model's
							// scores at the width the normaliser reads them, its
							// range over the catalog, the min–max loop, the clamp
							// the accuracy wrapper repeated, then the combine.
							catalog := make([]float64, items)
							for i := range catalog {
								catalog[i] = table.Score(u, types.ItemID(i))
								if has32 {
									catalog[i] = float64(float32(catalog[i]))
								}
							}
							lo, hi := stagedRange(catalog)
							theta := prefs.Get(u)
							gainsOf := func(cand []types.ItemID) (g64 []float64, g32 []float32) {
								covs := make([]float64, len(cand))
								raw := make([]float64, len(cand))
								for k, i := range cand {
									covs[k], raw[k] = cov.at(u, i), catalog[i]
								}
								if exact {
									stagedNormalise64(raw, lo, hi)
									stagedClamp(raw)
									stagedCombine(raw, theta, covs)
									return raw, nil
								}
								acc := make([]float32, len(cand))
								if has32 {
									for k, v := range raw {
										acc[k] = float32(v)
									}
									stagedNormalise32(acc, lo, hi)
								} else {
									stagedNormalise64(raw, lo, hi)
									for k, v := range raw {
										acc[k] = float32(v)
									}
								}
								stagedClamp(acc)
								stagedCombine(acc, theta, covs)
								return nil, acc
							}
							cand := stagedCandidates(rated, items)
							g64, g32 := gainsOf(cand)
							wantTop := func(n int) types.TopNSet {
								if exact {
									return stagedSelect(cand, g64, n)
								}
								return stagedSelect(cand, g32, n)
							}

							sc := new(sweepScratch)
							scored := g.scoreTurn(u, rated, state, exact, sc)
							if (scored.raw32 != nil) == exact {
								t.Fatalf("%s: scored in float32: %v", label, scored.raw32 != nil)
							}
							for _, n := range []int{0, 1, 3, len(cand), len(cand) + 5} {
								got, want := scored.top(n, sc), wantTop(n)
								if !slices.Equal(got, want) || (got == nil) != (want == nil) {
									t.Fatalf("%s n=%d: walk %v, staged oracle %v", label, n, got, want)
								}
							}
							var got types.TopNSet
							if bytes := allocatedBy(func() { got = scored.top(1<<20, sc) }); bytes > 1<<16 {
								t.Fatalf("%s: a walk with n = 2^20 allocated %d bytes for %d candidates", label, bytes, len(cand))
							}
							if want := wantTop(len(cand)); !slices.Equal(got, want) {
								t.Fatalf("%s n=2^20: walk %v, staged oracle %v", label, got, want)
							}

							// firstOutranks over SurvivesGrowth's list shapes, on
							// the turn's catalog scores and a full coverage row.
							if len(cand) == 0 || strays {
								continue
							}
							row := make([]float64, items)
							for i := range row {
								row[i] = cov.at(u, types.ItemID(i))
							}
							shuffled := slices.Clone(cand)
							rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
							shapes := map[string][]types.ItemID{
								"sorted":   cand,
								"shuffled": shuffled,
								"grown":    append([]types.ItemID{types.ItemID(10 + rng.Intn(20))}, cand[len(cand)-1-rng.Intn(min(8, len(cand))):]...),
								"one":      {types.ItemID(rng.Intn(items))},
							}
							for shape, list := range shapes {
								g64, g32 := gainsOf(list)
								var got, want bool
								if exact {
									raw := make([]float64, len(list))
									for k, i := range list {
										raw[k] = scored.raw64[i]
									}
									got = firstOutranks(list, raw, scored.map64, theta, row)
									want = stagedFirstOutranksRest(list, g64)
								} else {
									raw := make([]float32, len(list))
									for k, i := range list {
										raw[k] = scored.raw32[i]
									}
									got = firstOutranks(list, raw, scored.map32, float32(theta), row)
									want = stagedFirstOutranksRest(list, g32)
								}
								if got != want {
									t.Fatalf("%s %s: firstOutranks = %v, staged oracle %v", label, shape, got, want)
								}
							}
						}
					}
				}
			}
		}
	}
}
