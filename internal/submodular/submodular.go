// Package submodular is the executable form of the paper's Appendix B: the
// combinatorial optimization argument behind GANC's dynamic-coverage
// objective. It holds marginal-gain oracles, the locally greedy algorithm of
// Fisher, Nemhauser & Wolsey (1978) for maximizing a monotone submodular
// function subject to a partition matroid, a lazy-greedy accelerated variant,
// and small helpers for verifying submodularity and monotonicity empirically.
//
// Appendix B shows that with the Dyn coverage recommender the objective
// Σ_u v_u(P_u) is monotone submodular over user–item pairs and the constraint
// "N items per user" is a partition matroid, so locally greedy gives a
// 1/2-approximation. No production path runs this package: internal/core's
// sweep scores a user's candidates once and takes the top N, which is the
// same sequence of picks because one user's turn is modular (DESIGN.md §7).
// The tests here and BenchmarkAblation_LazyGreedy keep the general machinery
// honest against that shortcut.
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

// lazyEntry is a heap entry for lazy greedy: the cached gain of an item.
type lazyEntry struct {
	item  types.ItemID
	gain  float64
	stamp int // selection count at which the gain was computed
}

// lazyHeap is a max-heap over lazyEntry with direct sift operations instead
// of container/heap, whose interface-based API boxes every pushed and popped
// entry.
type lazyHeap []lazyEntry

func (h lazyHeap) less(a, b int) bool {
	if h[a].gain != h[b].gain {
		return h[a].gain > h[b].gain
	}
	return h[a].item < h[b].item
}

func (h lazyHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h lazyHeap) siftDown(i int) {
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		best := left
		if right := left + 1; right < n && h.less(right, left) {
			best = right
		}
		if !h.less(best, i) {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

func (h lazyHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// replaceTop overwrites the maximum entry and restores the heap property —
// the pop-recompute-push cycle of lazy greedy collapsed into one sift.
func (h lazyHeap) replaceTop(e lazyEntry) {
	h[0] = e
	h.siftDown(0)
}

// popTop removes and returns the maximum entry.
func (h *lazyHeap) popTop() lazyEntry {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old = old[:n]
	old.siftDown(0)
	*h = old
	return top
}

// LazyGreedyForUser selects n items for a single user using lazy evaluation
// (Minoux's accelerated greedy): cached gains are only re-evaluated when an
// item reaches the top of the priority queue with a stale timestamp. For
// submodular gains this returns exactly the same set as the plain greedy
// sweep while evaluating far fewer gains; for a modular objective it
// degenerates gracefully to a single evaluation per item.
func LazyGreedyForUser(u types.UserID, n int, oracle Oracle) types.TopNSet {
	candidates := oracle.Candidates(u)
	if n > len(candidates) {
		n = len(candidates)
	}
	h := make(lazyHeap, 0, len(candidates))
	for _, i := range candidates {
		h = append(h, lazyEntry{item: i, gain: oracle.Gain(u, i), stamp: 0})
	}
	h.init()
	set := make(types.TopNSet, 0, n)
	selections := 0
	for len(set) < n && len(h) > 0 {
		top := h[0]
		if top.stamp == selections {
			// Fresh gain: take it.
			set = append(set, top.item)
			oracle.Commit(u, top.item)
			selections++
			h.popTop()
			continue
		}
		// Stale: re-evaluate in place and restore the heap property.
		top.gain = oracle.Gain(u, top.item)
		top.stamp = selections
		h.replaceTop(top)
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
