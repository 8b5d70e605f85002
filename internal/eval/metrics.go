// Package eval implements the performance metrics of the paper's Table III —
// local ranking accuracy (Precision@N, Recall@N, F-measure@N), long-tail
// promotion (LTAccuracy@N, Stratified Recall@N) and coverage (Coverage@N,
// Gini@N) — together with the two test ranking protocols compared in the
// paper's Appendix C (all-unrated-items and rated-test-items).
package eval

import (
	"fmt"
	"math"
	"sort"

	"ganc/internal/dataset"
	"ganc/internal/types"
)

// RelevanceThreshold is the rating at or above which a test item counts as
// relevant (the paper uses r_ui ≥ 4).
const RelevanceThreshold = 4.0

// DefaultStratifiedBeta is the β exponent of Stratified Recall; the paper
// follows Steck (2013) and uses 0.5.
const DefaultStratifiedBeta = 0.5

// Report holds every Table III metric for one algorithm at one N.
type Report struct {
	Algorithm string
	N         int

	Precision   float64
	Recall      float64
	FMeasure    float64
	LTAccuracy  float64
	StratRecall float64
	Coverage    float64
	Gini        float64

	// UsersEvaluated is the number of users included in the precision/recall
	// averages (those with at least one recommendation).
	UsersEvaluated int
}

// String renders the report as a single table row.
func (r Report) String() string {
	return fmt.Sprintf("%-34s F@%d=%.4f S@%d=%.4f L@%d=%.4f C@%d=%.4f G@%d=%.4f",
		r.Algorithm, r.N, r.FMeasure, r.N, r.StratRecall, r.N, r.LTAccuracy, r.N, r.Coverage, r.N, r.Gini)
}

// Evaluator computes metrics for recommendation collections against a fixed
// train/test split. Construct once per split and reuse across algorithms so
// the long-tail set, item popularities and relevant-item index are shared.
type Evaluator struct {
	train    *dataset.Dataset
	test     *dataset.Dataset
	numItems int

	relevant map[types.UserID]map[types.ItemID]struct{}
	tail     map[types.ItemID]struct{}
	trainPop []int
	beta     float64

	// stratDen is the Stratified Recall denominator — the summed weights of
	// every relevant test item. It is precomputed in deterministic (sorted)
	// order once, so repeated Evaluate calls produce bitwise-identical
	// reports instead of re-summing floats in randomized map order.
	stratDen float64
}

// NewEvaluator builds an evaluator for the given split. beta ≤ 0 selects the
// default Stratified Recall exponent of 0.5.
func NewEvaluator(split *dataset.Split, beta float64) *Evaluator {
	if beta <= 0 {
		beta = DefaultStratifiedBeta
	}
	rel := make(map[types.UserID]map[types.ItemID]struct{})
	for u, items := range dataset.RelevantTestItems(split.Test, RelevanceThreshold) {
		set := make(map[types.ItemID]struct{}, len(items))
		for _, i := range items {
			set[i] = struct{}{}
		}
		rel[u] = set
	}
	e := &Evaluator{
		train:    split.Train,
		test:     split.Test,
		numItems: split.Train.NumItems(),
		relevant: rel,
		tail:     split.Train.LongTail(dataset.DefaultTailShare),
		trainPop: split.Train.PopularityVector(),
		beta:     beta,
	}
	users := make([]types.UserID, 0, len(rel))
	for u := range rel {
		users = append(users, u)
	}
	sort.Slice(users, func(a, b int) bool { return users[a] < users[b] })
	for _, u := range users {
		items := make([]types.ItemID, 0, len(rel[u]))
		for i := range rel[u] {
			items = append(items, i)
		}
		sort.Slice(items, func(a, b int) bool { return items[a] < items[b] })
		for _, i := range items {
			e.stratDen += e.stratWeight(i)
		}
	}
	return e
}

// LongTail exposes the train-set long-tail item set used by LTAccuracy.
func (e *Evaluator) LongTail() map[types.ItemID]struct{} { return e.tail }

// Evaluate computes the full Table III report for a recommendation
// collection produced by algorithm `name` at cutoff n. Lists longer than n
// are truncated; shorter lists are evaluated as-is (matching the paper's
// fixed-size top-N sets, which are always exactly N in practice).
func (e *Evaluator) Evaluate(name string, recs types.Recommendations, n int) Report {
	rep := Report{Algorithm: name, N: n}
	if n <= 0 || len(recs) == 0 {
		return rep
	}

	var (
		sumPrecision float64
		sumRecall    float64
		usersWithRel int
		usersEval    int

		longTailHits int
		totalRecs    int

		stratNum float64
	)
	itemFreq := make([]int, e.numItems)

	// Iterate users in sorted order: the report's floating-point sums (and
	// therefore printed comparison tables and golden tests) are then stable
	// run to run instead of following randomized map order.
	for _, u := range recs.SortedUsers() {
		set := recs[u]
		if len(set) > n {
			set = set[:n]
		}
		if len(set) == 0 {
			continue
		}
		usersEval++
		rel := e.relevant[u]

		hits := 0
		for _, i := range set {
			if int(i) < e.numItems {
				itemFreq[i]++
			}
			totalRecs++
			if _, isTail := e.tail[i]; isTail {
				longTailHits++
			}
			if rel != nil {
				if _, ok := rel[i]; ok {
					hits++
					stratNum += e.stratWeight(i)
				}
			}
		}
		sumPrecision += float64(hits) / float64(n)
		if len(rel) > 0 {
			usersWithRel++
			sumRecall += float64(hits) / float64(len(rel))
		}
	}

	if usersEval > 0 {
		rep.Precision = sumPrecision / float64(usersEval)
	}
	if usersWithRel > 0 {
		rep.Recall = sumRecall / float64(usersWithRel)
	}
	if rep.Precision+rep.Recall > 0 {
		rep.FMeasure = rep.Precision * rep.Recall / (rep.Precision + rep.Recall)
	}
	if totalRecs > 0 {
		rep.LTAccuracy = float64(longTailHits) / float64(totalRecs)
	}
	rep.StratRecall = e.stratRecall(stratNum)
	rep.Coverage = coverageFromFreq(itemFreq)
	rep.Gini = giniFromFreq(itemFreq)
	rep.UsersEvaluated = usersEval
	return rep
}

// stratWeight is (1/f_i^R)^β, the stratified-recall weight of a hit on item i.
func (e *Evaluator) stratWeight(i types.ItemID) float64 {
	pop := 1.0
	if int(i) < len(e.trainPop) && e.trainPop[i] > 0 {
		pop = float64(e.trainPop[i])
	}
	return math.Pow(1/pop, e.beta)
}

// stratRecall finishes the Stratified Recall computation: the numerator is
// the summed weights of the hits, the denominator the precomputed summed
// weights of all relevant test items across users.
func (e *Evaluator) stratRecall(num float64) float64 {
	if e.stratDen == 0 {
		return 0
	}
	return num / e.stratDen
}

// coverageFromFreq is |distinct recommended items| / |I|.
func coverageFromFreq(freq []int) float64 {
	if len(freq) == 0 {
		return 0
	}
	distinct := 0
	for _, f := range freq {
		if f > 0 {
			distinct++
		}
	}
	return float64(distinct) / float64(len(freq))
}

// giniFromFreq computes the Gini coefficient of the recommendation frequency
// distribution using the paper's formula (Table III): the vector is sorted in
// non-decreasing order and
//
//	Gini = (1/|I|) · (|I| + 1 − 2·Σ_j (|I|+1−j)·f[j] / Σ_j f[j])
//
// 0 means every item is recommended equally often; values near 1 mean the
// recommendations concentrate on a few items.
func giniFromFreq(freq []int) float64 {
	n := len(freq)
	if n == 0 {
		return 0
	}
	sorted := make([]float64, n)
	total := 0.0
	for i, f := range freq {
		sorted[i] = float64(f)
		total += float64(f)
	}
	if total == 0 {
		return 0
	}
	sort.Float64s(sorted)
	weighted := 0.0
	for j, f := range sorted {
		// j is zero-based; the formula's j is one-based.
		weighted += float64(n-j) * f
	}
	return (float64(n) + 1 - 2*weighted/total) / float64(n)
}

// Gini is the exported form of giniFromFreq for callers that already hold a
// frequency vector (e.g. the experiment harness's ablation output).
func Gini(freq []int) float64 { return giniFromFreq(freq) }

// Coverage is the exported form of coverageFromFreq.
func Coverage(freq []int) float64 { return coverageFromFreq(freq) }

// RankReports orders reports by ascending average rank across the five
// headline metrics (F-measure, Stratified Recall, LTAccuracy, Coverage and
// Gini), reproducing the "Score" column of the paper's Table IV. Higher is
// better for every metric except Gini, where lower is better. The returned
// map gives each algorithm's average rank.
func RankReports(reports []Report) map[string]float64 {
	if len(reports) == 0 {
		return nil
	}
	type metricAccessor struct {
		value  func(Report) float64
		higher bool
	}
	metrics := []metricAccessor{
		{func(r Report) float64 { return r.FMeasure }, true},
		{func(r Report) float64 { return r.StratRecall }, true},
		{func(r Report) float64 { return r.LTAccuracy }, true},
		{func(r Report) float64 { return r.Coverage }, true},
		{func(r Report) float64 { return r.Gini }, false},
	}
	sums := make(map[string]float64, len(reports))
	for _, m := range metrics {
		idx := make([]int, len(reports))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			va, vb := m.value(reports[idx[a]]), m.value(reports[idx[b]])
			if m.higher {
				return va > vb
			}
			return va < vb
		})
		// Assign ranks, sharing the rank for exact ties.
		rank := 0
		for pos, ri := range idx {
			if pos == 0 || m.value(reports[ri]) != m.value(reports[idx[pos-1]]) {
				rank = pos + 1
			}
			sums[reports[ri].Algorithm] += float64(rank)
		}
	}
	for name := range sums {
		sums[name] /= float64(len(metrics))
	}
	return sums
}
