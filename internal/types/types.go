// Package types defines the shared vocabulary of the GANC library: user and
// item identifiers, ratings, and the string-interning tables that map external
// dataset identifiers (arbitrary strings or sparse integer keys) to the dense
// zero-based indices every other package operates on.
//
// Keeping these definitions in a leaf package lets the data layer, the
// recommenders, the re-ranking framework and the evaluation harness agree on
// the representation of a rating without importing each other.
package types

import (
	"fmt"
	"sort"
	"sync"
)

// UserID is a dense, zero-based index identifying a user within a Dataset.
// It is assigned by an Interner in order of first appearance.
type UserID int32

// ItemID is a dense, zero-based index identifying an item within a Dataset.
type ItemID int32

// InvalidUser and InvalidItem are sentinel identifiers returned by lookups
// that fail. They never appear inside a valid Dataset.
const (
	InvalidUser UserID = -1
	InvalidItem ItemID = -1
)

// Rating is a single observed interaction: user u gave item i the value
// Value. Values are kept as float64 so that datasets with half-star
// increments (ML-10M) or rescaled scales (MovieTweetings mapped onto [1,5])
// flow through unchanged.
type Rating struct {
	User  UserID
	Item  ItemID
	Value float64
}

// String implements fmt.Stringer for debugging output.
func (r Rating) String() string {
	return fmt.Sprintf("Rating{u=%d i=%d v=%.2f}", r.User, r.Item, r.Value)
}

// Interner maps external string keys to dense indices. The zero value is not
// usable; construct with NewInterner or NewInternerFromKeys.
//
// An Interner is safe for concurrent use: lookups take a read lock only, so
// the serving hot path (key → index → key translation) never serializes, and
// streaming ingestion can intern new users and items while requests are in
// flight.
type Interner struct {
	mu      sync.RWMutex
	toIndex map[string]int32
	toKey   []string
}

// NewInterner returns an empty interner with capacity hint n.
func NewInterner(n int) *Interner {
	if n < 0 {
		n = 0
	}
	return &Interner{
		toIndex: make(map[string]int32, n),
		toKey:   make([]string, 0, n),
	}
}

// NewInternerFromKeys rebuilds an interner from a key list in index order
// (the inverse of Keys, used when loading a persisted dataset snapshot).
func NewInternerFromKeys(keys []string) *Interner {
	in := NewInterner(len(keys))
	for _, k := range keys {
		in.Intern(k)
	}
	return in
}

// Intern returns the dense index for key, assigning the next free index if
// the key has not been seen before.
func (in *Interner) Intern(key string) int32 {
	in.mu.RLock()
	idx, ok := in.toIndex[key]
	in.mu.RUnlock()
	if ok {
		return idx
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if idx, ok := in.toIndex[key]; ok {
		return idx
	}
	idx = int32(len(in.toKey))
	in.toIndex[key] = idx
	in.toKey = append(in.toKey, key)
	return idx
}

// Lookup returns the dense index for key and whether it has been interned.
func (in *Interner) Lookup(key string) (int32, bool) {
	in.mu.RLock()
	defer in.mu.RUnlock()
	idx, ok := in.toIndex[key]
	return idx, ok
}

// Key returns the external key for a dense index. It panics if idx is out of
// range, mirroring slice semantics.
func (in *Interner) Key(idx int32) string {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.toKey[idx]
}

// Len reports how many distinct keys have been interned.
func (in *Interner) Len() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return len(in.toKey)
}

// Keys returns a copy of all interned keys in index order.
func (in *Interner) Keys() []string {
	in.mu.RLock()
	defer in.mu.RUnlock()
	out := make([]string, len(in.toKey))
	copy(out, in.toKey)
	return out
}

// ScoredItem pairs an item with a model score (ItemKNN's neighbour lists are
// made of them).
type ScoredItem struct {
	Item  ItemID
	Score float64
}

// TopNSet is the ordered top-N recommendation list for a single user. The
// first element is the highest-ranked item.
type TopNSet []ItemID

// Contains reports whether the set includes item i. Top-N sets are small
// (N ≤ a few dozen) so a linear scan is faster than building a map.
func (p TopNSet) Contains(i ItemID) bool {
	for _, it := range p {
		if it == i {
			return true
		}
	}
	return false
}

// Clone returns a copy of the set.
func (p TopNSet) Clone() TopNSet {
	out := make(TopNSet, len(p))
	copy(out, p)
	return out
}

// Recommendations is a collection of top-N sets, indexed by UserID. Users
// with no recommendations have a nil entry.
type Recommendations map[UserID]TopNSet

// NumUsers reports how many users have a non-empty top-N set.
func (r Recommendations) NumUsers() int {
	n := 0
	for _, p := range r {
		if len(p) > 0 {
			n++
		}
	}
	return n
}

// SortedUsers returns the collection's user identifiers in ascending order.
// Iterating a Recommendations map directly follows Go's randomized map order,
// which makes floating-point aggregates and printed tables differ run to run;
// every output and evaluation path iterates via SortedUsers instead.
func (r Recommendations) SortedUsers() []UserID {
	users := make([]UserID, 0, len(r))
	for u := range r {
		users = append(users, u)
	}
	sort.Slice(users, func(a, b int) bool { return users[a] < users[b] })
	return users
}

// DistinctItems returns the set of distinct items appearing anywhere in the
// collection.
func (r Recommendations) DistinctItems() map[ItemID]struct{} {
	out := make(map[ItemID]struct{})
	for _, p := range r {
		for _, i := range p {
			out[i] = struct{}{}
		}
	}
	return out
}

// ItemFrequencies counts how often each item is recommended across all users.
func (r Recommendations) ItemFrequencies() map[ItemID]int {
	out := make(map[ItemID]int)
	for _, p := range r {
		for _, i := range p {
			out[i]++
		}
	}
	return out
}
