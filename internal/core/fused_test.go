package core

// The property test of the fused walk (scoreTurn → turn.top, and
// firstOutranks for SurvivesGrowth): a turn is held, list for list and verdict for
// verdict, to the stages it ran as before they were one loop — normalise,
// clamp, clamp again, combine, select — written out longhand below and kept
// here as the oracle.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ganc/internal/dataset"
	"ganc/internal/longtail"
	"ganc/internal/recommender"
	"ganc/internal/types"
)

// tableScorer scores from a table, so a test chooses every raw score.
type tableScorer struct{ scores [][]float64 }

func (s tableScorer) Score(u types.UserID, i types.ItemID) float64 { return s.scores[u][i] }
func (s tableScorer) Name() string                                 { return "table" }

// tableScorer32 adds the float32 bulk body the factor models have.
type tableScorer32 struct{ tableScorer }

func (s tableScorer32) ScoreUser32(u types.UserID, items []types.ItemID, out []float32) {
	for k, i := range items {
		out[k] = float32(s.scores[u][i])
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

func stagedCombine[T float32 | float64](gains []T, theta float64, covs []float64) {
	t := T(theta)
	a := 1 - t
	for k := range gains {
		gains[k] = a*gains[k] + t*T(covs[k])
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

// fusedUniverse is a train set of users × items in which user u has rated
// item u, and a score table over it drawn from a palette small enough that
// gains tie, with the values a broken model produces mixed in: user 0 scores
// every item the same (a span of 0), users 1 and 2 score finite values only,
// the rest see NaN and ±Inf too.
func fusedUniverse(rng *rand.Rand, users, items int) (*dataset.Dataset, tableScorer) {
	ratings := []types.Rating{{User: 0, Item: types.ItemID(items - 1), Value: 3}}
	for u := 0; u < users; u++ {
		ratings = append(ratings, types.Rating{User: types.UserID(u), Item: types.ItemID(u), Value: 4})
	}
	palette := []float64{0, 0.25, 0.25, 0.5, 0.5, 1, 2.5, -3, 1e-3, math.NaN(), math.Inf(1), math.Inf(-1)}
	table := make([][]float64, users)
	for u := range table {
		table[u] = make([]float64, items)
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
	return dataset.FromRatings("fused", ratings), tableScorer{table}
}

// TestFusedWalkMatchesStagedOracle: over random raw scores (NaN, ±Inf, a span
// of 0, ties at every rank), the walk returns the staged oracle's list and
// firstOutranks its verdict — in float32 over a float32 bulk body, in
// float32 over truncated float64 scores, and in float64 (OSLG's sequential
// phase); under Dyn, Stat and a coverage recommender without a bulk path; for
// the sorted candidate list of a sweep and the unsorted ones SurvivesGrowth
// passes, in which an item tying the bar may carry a smaller identifier than
// the entry it ties — the case the walk's `gain < bar` skip must let through;
// for n from 0 to past the candidates.
func TestFusedWalkMatchesStagedOracle(t *testing.T) {
	const users, items = 6, 48
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 8; trial++ {
		train, table := fusedUniverse(rng, users, items)
		prefs := longtail.Random(users, int64(trial))
		prefs.Values[1] = 0 // accuracy alone ranks: ties wherever the palette repeats
		counts := make([]int, items)
		for i := range counts {
			counts[i] = rng.Intn(4)
		}
		hash := &hashCoverage{seed: uint64(trial)}
		coverages := map[string]struct {
			crec CoverageRecommender
			freq []int
			at   func(u types.UserID, i types.ItemID) float64
		}{
			"Dyn":  {NewDynCoverageFrom(counts), counts, func(_ types.UserID, i types.ItemID) float64 { return 1 / math.Sqrt(float64(counts[i])+1) }},
			"Stat": {NewStatCoverageFromCounts(counts), nil, func(_ types.UserID, i types.ItemID) float64 { return 1 / math.Sqrt(float64(counts[i])+1) }},
			"Hash": {hash, nil, hash.CoverageScore},
		}
		for covName, cov := range coverages {
			for _, inner := range []recommender.Scorer{table, tableScorer32{table}} {
				_, has32 := inner.(recommender.BulkScorer32)
				for _, exact := range []bool{false, true} {
					norm := recommender.NewNormalizedScorer(inner, items)
					g, err := New(train, &ScorerAccuracy{Scorer: norm}, prefs, cov.crec, Config{N: 5})
					if err != nil {
						t.Fatal(err)
					}
					for u := types.UserID(0); int(u) < users; u++ {
						sorted := train.AppendCandidates(u, nil)
						shuffled := slices.Clone(sorted)
						rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
						shapes := map[string][]types.ItemID{
							"sorted":   sorted,
							"shuffled": shuffled,
							"grown":    append([]types.ItemID{types.ItemID(10 + rng.Intn(20))}, sorted[len(sorted)-1-rng.Intn(8):]...),
							"one":      {types.ItemID(rng.Intn(items))},
						}
						for shape, cand := range shapes {
							label := fmt.Sprintf("trial %d %s inner32=%v exact=%v user %d %s", trial, covName, has32, exact, u, shape)
							covs := make([]float64, len(cand))
							for k, i := range cand {
								covs[k] = cov.at(u, i)
							}
							// The accuracy stage as it was staged: the model's
							// scores at the width the normaliser reads them, its
							// range over the catalog, the min–max loop, the clamp
							// ScorerAccuracy repeated, then the combine.
							catalog := slices.Clone(table.scores[u])
							raw := make([]float64, len(cand))
							for k, i := range cand {
								raw[k] = table.scores[u][i]
							}
							if has32 {
								for _, s := range [][]float64{catalog, raw} {
									for k := range s {
										s[k] = float64(float32(s[k]))
									}
								}
							}
							min, max := stagedRange(catalog)
							theta := prefs.Get(u)

							sc := new(sweepScratch)
							scored := g.scoreTurn(u, cand, cov.freq, exact, sc)
							var wantTop func(n int) types.TopNSet
							var wantFirst bool
							if exact {
								stagedNormalise64(raw, min, max)
								stagedClamp(raw)
								stagedCombine(raw, theta, covs)
								wantTop = func(n int) types.TopNSet { return stagedSelect(cand, raw, n) }
								wantFirst = stagedFirstOutranksRest(cand, raw)
							} else {
								acc := make([]float32, len(cand))
								if has32 {
									for k, v := range raw {
										acc[k] = float32(v)
									}
									stagedNormalise32(acc, min, max)
								} else {
									stagedNormalise64(raw, min, max)
									for k, v := range raw {
										acc[k] = float32(v)
									}
								}
								stagedClamp(acc)
								stagedCombine(acc, theta, covs)
								wantTop = func(n int) types.TopNSet { return stagedSelect(cand, acc, n) }
								wantFirst = stagedFirstOutranksRest(cand, acc)
							}
							if (scored.raw32 != nil) == exact {
								t.Fatalf("%s: scored in float32: %v", label, scored.raw32 != nil)
							}
							var got bool
							if exact {
								got = firstOutranks(cand, scored.raw64, scored.map64, theta, cov.freq, scored.covs)
							} else {
								got = firstOutranks(cand, scored.raw32, scored.map32, float32(theta), cov.freq, scored.covs)
							}
							if got != wantFirst {
								t.Fatalf("%s: firstOutranks = %v, staged oracle %v", label, got, wantFirst)
							}
							for _, n := range []int{0, 1, 3, len(cand), len(cand) + 5} {
								got, want := scored.top(n), wantTop(n)
								if !slices.Equal(got, want) || (got == nil) != (want == nil) {
									t.Fatalf("%s n=%d: walk %v, staged oracle %v", label, n, got, want)
								}
							}
						}
					}
				}
			}
		}
	}
}
