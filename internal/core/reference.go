package core

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"

	"ganc/internal/types"
)

// This file preserves the pre-refactor optimizer — per-pick full catalog
// rescans over map[ItemID]struct{} exclusion sets, one Score call per
// (user, item, pick) — verbatim. It is NOT used by any production path: the
// equivalence property tests pin the candidate pipeline against it, and
// BenchmarkRecommendAll tracks the speedup it was replaced for.

// ReferenceRecommendAll runs the pre-refactor batch optimizer: the same
// algorithms as RecommendAll (independent greedy sweeps for stateless
// coverage, OSLG for Dyn) driven by the per-pick rescan sweep. For Stat
// coverage the output is bit-identical to the new path; for Dyn the objective
// value is equal (the per-user subproblems have the same optima); for Rand
// the outputs differ only in rng consumption order.
func (g *GANC) ReferenceRecommendAll() types.Recommendations {
	if dyn, ok := g.crec.(*DynCoverage); ok {
		return g.referenceOSLG(dyn)
	}
	recs := make(types.Recommendations, g.train.NumUsers())
	var mu sync.Mutex
	g.referenceForEach(g.train.NumUsers(), func(u int) {
		uid := types.UserID(u)
		set, _ := g.referenceSweep(context.Background(), uid, g.train.UserItemSet(uid), g.cfg.N, true)
		mu.Lock()
		recs[uid] = set
		mu.Unlock()
	})
	return recs
}

// ReferenceRecommendUser is the pre-refactor online path: a per-pick rescan
// sweep against a fresh Dyn snapshot (or the live stateless scores).
func (g *GANC) ReferenceRecommendUser(ctx context.Context, u types.UserID, n int) (types.TopNSet, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if n <= 0 {
		n = g.cfg.N
	}
	exclude := g.train.UserItemSet(u)
	if dyn, ok := g.crec.(*DynCoverage); ok {
		return g.referenceFrozen(ctx, u, exclude, dyn.Frequencies(), n)
	}
	return g.referenceSweep(ctx, u, exclude, n, false)
}

// referenceSweep is the pre-refactor greedy selection loop: every pick
// rescans the full catalog through the exclusion and chosen maps.
func (g *GANC) referenceSweep(ctx context.Context, u types.UserID, exclude map[types.ItemID]struct{}, n int, observe bool) (types.TopNSet, error) {
	set := make(types.TopNSet, 0, n)
	chosen := make(map[types.ItemID]struct{}, n)
	for step := 0; step < n; step++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		best := types.InvalidItem
		bestGain := math.Inf(-1)
		for idx := 0; idx < g.numItems; idx++ {
			item := types.ItemID(idx)
			if _, skip := exclude[item]; skip {
				continue
			}
			if _, used := chosen[item]; used {
				continue
			}
			gain := g.marginalGain(u, item)
			if gain > bestGain || (gain == bestGain && item < best) {
				bestGain, best = gain, item
			}
		}
		if best == types.InvalidItem {
			break
		}
		set = append(set, best)
		chosen[best] = struct{}{}
		if observe {
			g.crec.Observe(best)
		}
	}
	return set, nil
}

// referenceFrozen is the pre-refactor frozen-frequency sweep.
func (g *GANC) referenceFrozen(ctx context.Context, u types.UserID, exclude map[types.ItemID]struct{}, freq []int, n int) (types.TopNSet, error) {
	set := make(types.TopNSet, 0, n)
	chosen := make(map[types.ItemID]struct{}, n)
	theta := g.prefs.Get(u)
	localBump := make(map[types.ItemID]int, n)
	for step := 0; step < n; step++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		best := types.InvalidItem
		bestGain := math.Inf(-1)
		for idx := 0; idx < g.numItems; idx++ {
			item := types.ItemID(idx)
			if _, skip := exclude[item]; skip {
				continue
			}
			if _, used := chosen[item]; used {
				continue
			}
			base := 0
			if idx < len(freq) {
				base = freq[idx]
			}
			cov := 1 / math.Sqrt(float64(base+localBump[item])+1)
			gain := (1-theta)*g.arec.AccuracyScore(u, item) + theta*cov
			if gain > bestGain || (gain == bestGain && item < best) {
				bestGain, best = gain, item
			}
		}
		if best == types.InvalidItem {
			break
		}
		set = append(set, best)
		chosen[best] = struct{}{}
		localBump[best]++
	}
	return set, nil
}

// referenceOSLG is the pre-refactor Algorithm 1 driver. It shares the KDE
// sampling code with the new path, so both consume the seeded rng
// identically and sample the same users.
func (g *GANC) referenceOSLG(dyn *DynCoverage) types.Recommendations {
	numUsers := g.train.NumUsers()
	rng := rand.New(rand.NewSource(g.cfg.Seed))
	recs := make(types.Recommendations, numUsers)

	all := make([]userTheta, numUsers)
	for u := 0; u < numUsers; u++ {
		all[u] = userTheta{user: types.UserID(u), theta: g.prefs.Get(types.UserID(u))}
	}

	sampleSize := g.cfg.SampleSize
	fullSequential := sampleSize <= 0 || sampleSize >= numUsers

	var sample []userTheta
	if fullSequential {
		sample = all
	} else {
		sample = g.sampleUsersByKDE(all, sampleSize, rng)
	}
	sort.Slice(sample, func(a, b int) bool {
		if sample[a].theta != sample[b].theta {
			return sample[a].theta < sample[b].theta
		}
		return sample[a].user < sample[b].user
	})

	snapshots := make([]snapshot[[]int], 0, len(sample))
	inSample := make(map[types.UserID]struct{}, len(sample))
	for _, ut := range sample {
		inSample[ut.user] = struct{}{}
		set, _ := g.referenceSweep(context.Background(), ut.user, g.train.UserItemSet(ut.user), g.cfg.N, true)
		recs[ut.user] = set
		snapshots = append(snapshots, snapshot[[]int]{theta: ut.theta, state: dyn.Frequencies()})
	}

	if fullSequential {
		return recs
	}

	var remaining []userTheta
	for _, ut := range all {
		if _, done := inSample[ut.user]; done {
			continue
		}
		remaining = append(remaining, ut)
	}
	var mu sync.Mutex
	g.referenceForEach(len(remaining), func(k int) {
		ut := remaining[k]
		snap := nearestSnapshot(snapshots, ut.theta)
		set, _ := g.referenceFrozen(context.Background(), ut.user, g.train.UserItemSet(ut.user), snap, g.cfg.N)
		mu.Lock()
		recs[ut.user] = set
		mu.Unlock()
	})
	for _, ut := range remaining {
		for _, i := range recs[ut.user] {
			dyn.Observe(i)
		}
	}
	return recs
}

// referenceForEach is the pre-refactor per-task worker pool (one channel item
// per user rather than contiguous ranges).
func (g *GANC) referenceForEach(count int, fn func(int)) {
	workers := g.cfg.Workers
	if workers <= 1 || count <= 1 {
		for k := 0; k < count; k++ {
			fn(k)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int, count)
	for k := 0; k < count; k++ {
		next <- k
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				fn(k)
			}
		}()
	}
	wg.Wait()
}
