// Package submodular is the executable form of the paper's Appendix B: the
// combinatorial optimization argument behind GANC's dynamic-coverage
// objective. It holds marginal-gain oracles, the locally greedy algorithm of
// Fisher, Nemhauser & Wolsey (1978) for maximizing a monotone submodular
// function subject to a partition matroid, and small helpers for verifying
// submodularity and monotonicity empirically.
//
// Appendix B shows that with the Dyn coverage recommender the objective
// Σ_u v_u(P_u) is monotone submodular over user–item pairs and the constraint
// "N items per user" is a partition matroid, so locally greedy gives a
// 1/2-approximation. No production path runs this package: internal/core's
// sweep scores a user's candidates once and takes the top N, which is the
// same sequence of picks because one user's turn is modular (DESIGN.md §7).
// The tests here keep the general machinery honest against that shortcut.
package submodular

import (
	"fmt"

	"ganc/internal/types"
)

// GainFunc returns the marginal gain of adding item i to user u's current
// set, given the state accumulated so far. Implementations may close over
// mutable state (e.g. the Dyn recommendation-frequency counter); Maximize
// calls Commit after each selection so the state can be updated.
type GainFunc func(u types.UserID, i types.ItemID) float64

// Oracle describes the objective to the optimizer.
type Oracle interface {
	// Gain returns the marginal gain of adding item i to user u's set given
	// everything selected so far.
	Gain(u types.UserID, i types.ItemID) float64
	// Commit informs the oracle that item i was added to user u's set, so it
	// can update any shared state (Dyn frequencies, per-user accumulators).
	Commit(u types.UserID, i types.ItemID)
	// Candidates returns the item identifiers eligible for user u (typically
	// the catalog minus the user's train items). The returned slice is not
	// modified.
	Candidates(u types.UserID) []types.ItemID
}

// LocallyGreedy assigns exactly n items to each user in the given order, at
// each step picking the candidate with the largest marginal gain. It is the
// reference optimizer: O(|users|·|candidates|·n) oracle calls.
func LocallyGreedy(users []types.UserID, n int, oracle Oracle) types.Recommendations {
	recs := make(types.Recommendations, len(users))
	for _, u := range users {
		recs[u] = greedyForUser(u, n, oracle)
	}
	return recs
}

func greedyForUser(u types.UserID, n int, oracle Oracle) types.TopNSet {
	candidates := oracle.Candidates(u)
	if n > len(candidates) {
		n = len(candidates)
	}
	chosen := make(map[types.ItemID]struct{}, n)
	set := make(types.TopNSet, 0, n)
	for step := 0; step < n; step++ {
		bestItem := types.InvalidItem
		bestGain := 0.0
		first := true
		for _, i := range candidates {
			if _, used := chosen[i]; used {
				continue
			}
			g := oracle.Gain(u, i)
			if first || g > bestGain || (g == bestGain && i < bestItem) {
				bestGain, bestItem, first = g, i, false
			}
		}
		if bestItem == types.InvalidItem {
			break
		}
		chosen[bestItem] = struct{}{}
		set = append(set, bestItem)
		oracle.Commit(u, bestItem)
	}
	return set
}

// PartitionMatroid models the "at most limit items per user" constraint. It
// exists to make the matroid argument in the paper's Appendix B executable
// and testable, and to guard optimizer implementations in tests.
type PartitionMatroid struct {
	limit  int
	counts map[types.UserID]int
}

// NewPartitionMatroid creates a matroid allowing at most limit items per user.
func NewPartitionMatroid(limit int) *PartitionMatroid {
	if limit < 0 {
		limit = 0
	}
	return &PartitionMatroid{limit: limit, counts: make(map[types.UserID]int)}
}

// CanAdd reports whether another item may be added to user u's set.
func (m *PartitionMatroid) CanAdd(u types.UserID) bool {
	return m.counts[u] < m.limit
}

// Add records an addition for user u. It returns an error when the addition
// would violate the matroid constraint.
func (m *PartitionMatroid) Add(u types.UserID) error {
	if !m.CanAdd(u) {
		return fmt.Errorf("submodular: user %d already holds %d items (limit %d)", u, m.counts[u], m.limit)
	}
	m.counts[u]++
	return nil
}

// Count returns how many items user u currently holds.
func (m *PartitionMatroid) Count(u types.UserID) int { return m.counts[u] }

// Limit returns the per-user limit.
func (m *PartitionMatroid) Limit() int { return m.limit }

// SetFunction is a plain set function over item sets, used by the empirical
// submodularity checks below.
type SetFunction func(items []types.ItemID) float64

// IsMonotone empirically verifies f(A) ≤ f(A ∪ {i}) for the given ground set
// by growing a chain of sets in the order provided. It is a test helper, not
// a proof: it samples one chain, which is enough to catch implementation
// mistakes in coverage functions.
func IsMonotone(f SetFunction, ground []types.ItemID) bool {
	prefix := make([]types.ItemID, 0, len(ground))
	prev := f(prefix)
	for _, i := range ground {
		prefix = append(prefix, i)
		cur := f(prefix)
		if cur < prev-1e-9 {
			return false
		}
		prev = cur
	}
	return true
}

// IsSubmodular empirically checks the diminishing-returns property
// f(A ∪ {x}) − f(A) ≥ f(B ∪ {x}) − f(B) for all prefixes A ⊆ B of the ground
// ordering and every x outside B. Quadratic in |ground|; use small grounds.
func IsSubmodular(f SetFunction, ground []types.ItemID) bool {
	for aEnd := 0; aEnd <= len(ground); aEnd++ {
		for bEnd := aEnd; bEnd <= len(ground); bEnd++ {
			a := ground[:aEnd]
			b := ground[:bEnd]
			fa, fb := f(a), f(b)
			for _, x := range ground[bEnd:] {
				gainA := f(append(append([]types.ItemID{}, a...), x)) - fa
				gainB := f(append(append([]types.ItemID{}, b...), x)) - fb
				if gainA < gainB-1e-9 {
					return false
				}
			}
		}
	}
	return true
}
