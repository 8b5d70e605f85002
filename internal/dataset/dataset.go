// Package dataset holds the collaborative-filtering interaction data and the
// derived structures every recommender in this library consumes: per-user and
// per-item rating indexes, item popularity counts, the Pareto (80/20)
// long-tail cut, and per-user train/test splits.
//
// The representation follows the paper's notation (Section II-A): the data D
// is a sparse subset of the complete |U|×|I| rating matrix, split into a train
// set R and test set T by keeping a fixed fraction κ of each user's ratings
// in train.
package dataset

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"

	"ganc/internal/types"
)

// Dataset is an immutable collection of ratings together with the interners
// that map external identifiers to dense user and item indices. Construct one
// with a Builder (incremental) or FromRatings. A Dataset must not be copied
// by value.
type Dataset struct {
	name string
	// ratings, and each entry of byUser and byItem, may have capacity
	// beyond its length: the tail is reserved for the dataset's first Extend
	// successor and is never read through this dataset (see Extend). The
	// accessors hand out capacity-clipped views.
	ratings []types.Rating
	// extended is set by the first Extend of this dataset, which takes the
	// reserved tails; every later Extend is a fork and copies.
	extended atomic.Bool

	users *types.Interner
	items *types.Interner

	byUser paged[[]int] // rating indices per user
	byItem paged[[]int] // rating indices per item

	// sortedItemsByUser holds each user's distinct rated items in ascending
	// ItemID order. It is the index-contiguous complement of byUser: the
	// candidate pipeline merges it linearly against the catalog to enumerate
	// "all unrated items" without building a map per call.
	sortedItemsByUser paged[[]types.ItemID]
}

// Builder accumulates ratings and produces a Dataset. The zero value is not
// usable; construct with NewBuilder.
type Builder struct {
	name    string
	users   *types.Interner
	items   *types.Interner
	ratings []types.Rating
}

// NewBuilder returns a Builder for a dataset with the given name. The
// capacity hint is the expected number of ratings.
func NewBuilder(name string, capacity int) *Builder {
	if capacity < 0 {
		capacity = 0
	}
	return &Builder{
		name:    name,
		users:   types.NewInterner(capacity / 16),
		items:   types.NewInterner(capacity / 64),
		ratings: make([]types.Rating, 0, capacity),
	}
}

// Add records a rating by external user and item keys.
func (b *Builder) Add(userKey, itemKey string, value float64) {
	u := types.UserID(b.users.Intern(userKey))
	i := types.ItemID(b.items.Intern(itemKey))
	b.ratings = append(b.ratings, types.Rating{User: u, Item: i, Value: value})
}

// AddIDs records a rating by already-dense identifiers. The caller is
// responsible for keeping identifiers dense; gaps create phantom users or
// items with no ratings.
func (b *Builder) AddIDs(u types.UserID, i types.ItemID, value float64) {
	for int32(b.users.Len()) <= int32(u) {
		b.users.Intern(fmt.Sprintf("u%d", b.users.Len()))
	}
	for int32(b.items.Len()) <= int32(i) {
		b.items.Intern(fmt.Sprintf("i%d", b.items.Len()))
	}
	b.ratings = append(b.ratings, types.Rating{User: u, Item: i, Value: value})
}

// Len reports the number of ratings accumulated so far.
func (b *Builder) Len() int { return len(b.ratings) }

// Build finalizes the dataset, constructing the per-user and per-item
// indexes. The Builder must not be reused afterwards.
func (b *Builder) Build() *Dataset {
	d := &Dataset{
		name:    b.name,
		ratings: b.ratings,
		users:   b.users,
		items:   b.items,
	}
	d.buildIndexes()
	return d
}

// FromRatings builds a Dataset directly from dense-identifier ratings. The
// number of users and items is inferred from the maximum identifiers present.
func FromRatings(name string, ratings []types.Rating) *Dataset {
	b := NewBuilder(name, len(ratings))
	for _, r := range ratings {
		b.AddIDs(r.User, r.Item, r.Value)
	}
	return b.Build()
}

// buildIndexes indexes the ratings by counting: byUser, byItem and
// sortedItemsByUser are each one backing array cut into per-user or
// per-item ranges. A range's capacity ends where its neighbour's begins —
// at its own headroom for the rating indexes (countingIndex), at its own
// end for the adjacency — so an Extend's append never writes into a
// neighbour's range.
func (d *Dataset) buildIndexes() {
	numUsers, numItems := d.users.Len(), d.items.Len()
	d.byUser = countingIndex(numUsers, d.ratings, func(r types.Rating) int { return int(r.User) })
	d.byItem = countingIndex(numItems, d.ratings, func(r types.Rating) int { return int(r.Item) })
	d.sortedItemsByUser = newPaged[[]types.ItemID](numUsers)
	free := make([]types.ItemID, len(d.ratings))
	for u := 0; u < numUsers; u++ {
		idxs := d.byUser.at(u)
		if len(idxs) == 0 {
			continue
		}
		items := free[:len(idxs):len(idxs)]
		free = free[len(idxs):]
		for k, idx := range idxs {
			items[k] = d.ratings[idx].Item
		}
		slices.Sort(items)
		*d.sortedItemsByUser.slot(u) = slices.Clip(slices.Compact(items))
	}
}

// countingIndex returns, for each of n keys, the indices of the ratings
// with that key in ascending order: a count per key places every key's
// range in one backing array, each followed by headroom of a quarter of its
// length that its capacity covers — the tail reserved for the dataset's
// first Extend successor (see Extend). Keys without ratings keep a nil entry.
func countingIndex(n int, ratings []types.Rating, key func(types.Rating) int) paged[[]int] {
	start := make([]int, n+1)
	for _, r := range ratings {
		start[key(r)+1]++
	}
	for k := 0; k < n; k++ {
		c := start[k+1]
		start[k+1] = start[k] + c + c/4
	}
	backing := make([]int, start[n])
	fill := slices.Clone(start[:n])
	for idx, r := range ratings {
		k := key(r)
		backing[fill[k]] = idx
		fill[k]++
	}
	index := newPaged[[]int](n)
	for k, hi := range fill {
		if lo := start[k]; hi > lo {
			*index.slot(k) = backing[lo:hi:start[k+1]]
		}
	}
	return index
}

// sortedItems returns the distinct items of the given ratings in ascending
// order (a user may rate the same item more than once).
func (d *Dataset) sortedItems(idxs []int) []types.ItemID {
	items := make([]types.ItemID, len(idxs))
	for k, idx := range idxs {
		items[k] = d.ratings[idx].Item
	}
	slices.Sort(items)
	return slices.Compact(items)
}

// Name returns the dataset's human-readable name.
func (d *Dataset) Name() string { return d.name }

// NumUsers returns |U|, the user universe this dataset was indexed over. It
// is frozen at construction time: streaming ingestion may intern new keys
// into the shared identifier tables afterwards, but this snapshot's universe
// (and every index sized by it) does not move — the extended universe belongs
// to the Dataset returned by Extend.
func (d *Dataset) NumUsers() int { return d.byUser.n }

// NumItems returns |I|, the item universe this dataset was indexed over (see
// NumUsers for the frozen-snapshot semantics).
func (d *Dataset) NumItems() int { return d.byItem.n }

// NumRatings returns |D|, the number of ratings.
func (d *Dataset) NumRatings() int { return len(d.ratings) }

// Ratings returns the rating slice, shared with the dataset (and, up to each
// one's own length, with the datasets it was extended from and into). Callers
// must not modify its elements. Its capacity equals its length, so appending
// to it copies and can never write into the shared backing array.
func (d *Dataset) Ratings() []types.Rating { return slices.Clip(d.ratings) }

// Rating returns the rating at index idx.
func (d *Dataset) Rating(idx int) types.Rating { return d.ratings[idx] }

// UserRatings returns the indices of ratings belonging to user u. Like
// Ratings, the slice is shared, read-only and capacity-clipped.
func (d *Dataset) UserRatings(u types.UserID) []int {
	if int(u) < 0 || int(u) >= d.byUser.n {
		return nil
	}
	return slices.Clip(d.byUser.at(int(u)))
}

// ItemRatings returns the indices of ratings belonging to item i (shared,
// read-only and capacity-clipped, as UserRatings).
func (d *Dataset) ItemRatings(i types.ItemID) []int {
	if int(i) < 0 || int(i) >= d.byItem.n {
		return nil
	}
	return slices.Clip(d.byItem.at(int(i)))
}

// UserItems returns the set of items rated by user u, in rating order.
func (d *Dataset) UserItems(u types.UserID) []types.ItemID {
	idxs := d.UserRatings(u)
	out := make([]types.ItemID, len(idxs))
	for k, idx := range idxs {
		out[k] = d.ratings[idx].Item
	}
	return out
}

// UserItemSet returns the set of items rated by user u as a membership map.
func (d *Dataset) UserItemSet(u types.UserID) map[types.ItemID]struct{} {
	idxs := d.UserRatings(u)
	out := make(map[types.ItemID]struct{}, len(idxs))
	for _, idx := range idxs {
		out[d.ratings[idx].Item] = struct{}{}
	}
	return out
}

// UserItemsSorted returns user u's distinct rated items in ascending ItemID
// order. The returned slice is shared with the dataset and must not be
// modified.
func (d *Dataset) UserItemsSorted(u types.UserID) []types.ItemID {
	if int(u) < 0 || int(u) >= d.sortedItemsByUser.n {
		return nil
	}
	return d.sortedItemsByUser.at(int(u))
}

// AppendCandidates appends user u's candidate items — the catalog minus the
// user's rated items — to buf in ascending ItemID order and returns the
// extended slice. Rather than merging item by item, it grows buf once and
// fills the gap runs between consecutive rated items with plain index
// writes, so the per-item cost is one store; it allocates nothing when buf
// has capacity, and callers reuse one buffer across users
// (buf = d.AppendCandidates(u, buf[:0])).
func (d *Dataset) AppendCandidates(u types.UserID, buf []types.ItemID) []types.ItemID {
	rated := d.UserItemsSorted(u)
	numItems := d.NumItems()
	n := len(buf)
	if cap(buf) < n+numItems {
		grown := make([]types.ItemID, n, n+numItems)
		copy(grown, buf)
		buf = grown
	}
	out := buf[n : n+numItems]
	w := 0
	next := types.ItemID(0)
	for _, r := range rated {
		if r >= types.ItemID(numItems) {
			break
		}
		if r < next { // duplicate in the adjacency; already skipped
			continue
		}
		for i := next; i < r; i++ {
			out[w] = i
			w++
		}
		next = r + 1
	}
	for i := next; i < types.ItemID(numItems); i++ {
		out[w] = i
		w++
	}
	return buf[:n+w]
}

// UserRating returns the value user u gave item i and whether such a rating
// exists. Lookup is linear in the user's profile size, which is small for the
// vast majority of users in CF data.
func (d *Dataset) UserRating(u types.UserID, i types.ItemID) (float64, bool) {
	for _, idx := range d.UserRatings(u) {
		if d.ratings[idx].Item == i {
			return d.ratings[idx].Value, true
		}
	}
	return 0, false
}

// ItemPopularity returns f_i^R, the number of ratings item i received.
func (d *Dataset) ItemPopularity(i types.ItemID) int {
	return len(d.ItemRatings(i))
}

// PopularityVector returns a vector of item popularities indexed by ItemID.
func (d *Dataset) PopularityVector() []int {
	out := make([]int, d.NumItems())
	for i := range out {
		out[i] = len(d.byItem.at(i))
	}
	return out
}

// UserInterner exposes the user identifier mapping so callers can translate
// recommendations back into external keys. The table is shared across every
// dataset derived from the same parent (splits, Extend children).
func (d *Dataset) UserInterner() *types.Interner { return d.users }

// ItemInterner exposes the item identifier mapping (see UserInterner).
func (d *Dataset) ItemInterner() *types.Interner { return d.items }

// Density returns |D| / (|U|·|I|), the fill rate of the rating matrix.
func (d *Dataset) Density() float64 {
	if d.NumUsers() == 0 || d.NumItems() == 0 {
		return 0
	}
	return float64(d.NumRatings()) / (float64(d.NumUsers()) * float64(d.NumItems()))
}

// MeanRating returns the global mean rating value, or 0 for an empty dataset.
func (d *Dataset) MeanRating() float64 {
	if len(d.ratings) == 0 {
		return 0
	}
	s := 0.0
	for _, r := range d.ratings {
		s += r.Value
	}
	return s / float64(len(d.ratings))
}

// LongTail computes the paper's Pareto-principle long-tail set over this
// dataset: items are sorted by decreasing popularity and the long tail L is
// the suffix of items that together generate the lower `tailShare` fraction
// (0.20 in the paper) of the total ratings. Only items with at least one
// rating participate; unrated items are trivially long-tail and are included.
func (d *Dataset) LongTail(tailShare float64) map[types.ItemID]struct{} {
	if tailShare < 0 {
		tailShare = 0
	}
	if tailShare > 1 {
		tailShare = 1
	}
	type itemPop struct {
		item types.ItemID
		pop  int
	}
	pops := make([]itemPop, 0, d.NumItems())
	total := 0
	for i := 0; i < d.NumItems(); i++ {
		p := len(d.byItem.at(i))
		total += p
		pops = append(pops, itemPop{item: types.ItemID(i), pop: p})
	}
	sort.Slice(pops, func(a, b int) bool {
		if pops[a].pop != pops[b].pop {
			return pops[a].pop > pops[b].pop
		}
		return pops[a].item < pops[b].item
	})
	tail := make(map[types.ItemID]struct{})
	if total == 0 {
		for _, ip := range pops {
			tail[ip.item] = struct{}{}
		}
		return tail
	}
	// Walk down the popularity-sorted list accumulating head mass; once the
	// head has captured (1 − tailShare) of all ratings, the rest is the tail.
	headBudget := float64(total) * (1 - tailShare)
	cum := 0.0
	for _, ip := range pops {
		if cum >= headBudget {
			tail[ip.item] = struct{}{}
			continue
		}
		cum += float64(ip.pop)
	}
	return tail
}

// DefaultTailShare is the Pareto 80/20 cut used throughout the paper.
const DefaultTailShare = 0.20

// Stats summarizes a dataset in the form reported in the paper's Table II.
type Stats struct {
	Name        string
	NumRatings  int
	NumUsers    int
	NumItems    int
	DensityPct  float64 // |D| / (|U|·|I|) × 100
	LongTailPct float64 // |L| / |I| × 100, with L computed at the 80/20 cut
	MeanRating  float64
	MinUserDeg  int
	MaxUserDeg  int
}

// ComputeStats derives Table II–style statistics from the dataset.
func (d *Dataset) ComputeStats() Stats {
	tail := d.LongTail(DefaultTailShare)
	minDeg, maxDeg := 0, 0
	if d.NumUsers() > 0 {
		minDeg = len(d.byUser.at(0))
		for u := 0; u < d.byUser.n; u++ {
			n := len(d.byUser.at(u))
			minDeg = min(minDeg, n)
			maxDeg = max(maxDeg, n)
		}
	}
	return Stats{
		Name:        d.name,
		NumRatings:  d.NumRatings(),
		NumUsers:    d.NumUsers(),
		NumItems:    d.NumItems(),
		DensityPct:  d.Density() * 100,
		LongTailPct: 100 * float64(len(tail)) / float64(maxInt(d.NumItems(), 1)),
		MeanRating:  d.MeanRating(),
		MinUserDeg:  minDeg,
		MaxUserDeg:  maxDeg,
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Split holds a per-user train/test partition of a parent dataset. Train and
// Test are themselves full Dataset values sharing the parent's user and item
// identifier spaces, so that an ItemID means the same thing in both.
type Split struct {
	Parent *Dataset
	Train  *Dataset
	Test   *Dataset
	Kappa  float64
}

// SplitByUser partitions the dataset per user: for each user, a fraction
// kappa of their ratings (rounded down, but at least one when the user has
// two or more ratings) is kept in train and the remainder goes to test. Users
// with a single rating keep it in train. The assignment is randomized by rng.
//
// This mirrors the paper's protocol: "randomly split each dataset into train
// and test sets by keeping a fixed ratio κ of each user's ratings in the
// train set and moving the rest to the test set."
func (d *Dataset) SplitByUser(kappa float64, rng *rand.Rand) *Split {
	if kappa <= 0 || kappa > 1 {
		panic(fmt.Sprintf("dataset: kappa must be in (0,1], got %v", kappa))
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	trainRatings := make([]types.Rating, 0, int(float64(len(d.ratings))*kappa)+d.NumUsers())
	testRatings := make([]types.Rating, 0, len(d.ratings)-cap(trainRatings)/2)

	for u := 0; u < d.NumUsers(); u++ {
		idxs := d.byUser.at(u)
		n := len(idxs)
		if n == 0 {
			continue
		}
		perm := rng.Perm(n)
		nTrain := int(float64(n) * kappa)
		if nTrain < 1 {
			nTrain = 1
		}
		if nTrain > n {
			nTrain = n
		}
		for k, p := range perm {
			r := d.ratings[idxs[p]]
			if k < nTrain {
				trainRatings = append(trainRatings, r)
			} else {
				testRatings = append(testRatings, r)
			}
		}
	}
	train := d.childFromRatings(d.name+"-train", trainRatings)
	test := d.childFromRatings(d.name+"-test", testRatings)
	return &Split{Parent: d, Train: train, Test: test, Kappa: kappa}
}

// childFromRatings builds a Dataset that reuses this dataset's identifier
// spaces (so user/item IDs remain comparable across train, test and parent).
func (d *Dataset) childFromRatings(name string, ratings []types.Rating) *Dataset {
	child := &Dataset{
		name:    name,
		ratings: ratings,
		users:   d.users,
		items:   d.items,
	}
	child.buildIndexes()
	return child
}

// Extend returns a new Dataset containing this dataset's ratings plus the
// given new ones, sharing the (concurrency-safe) identifier spaces with the
// parent. It is the incremental-ingestion counterpart of Build, and costs
// O(batch + (|U| + |I|)/64), not O(|D|):
//
//   - The per-user and per-item indexes are stored in pages of 64 entries
//     behind a page table. The child copies the page tables and clones only
//     the pages its batch writes; every other page is shared with the parent.
//   - The first Extend of a dataset is its single linear successor — the
//     ingestion stream's case. It shares the parent's storage and appends in
//     place: the new ratings go into the reserved tail of the rating array,
//     and each touched user's and item's rating index grows in its own tail
//     (a build leaves each a quarter of its length; append's amortised
//     growth reallocates a full one). The parent's slices
//     end at their own lengths, so it never sees what the successor appends.
//   - Extending the same parent again is a fork. The tails are taken, so the
//     fork copies the ratings and clips every index it inherits, once, into
//     pages of its own: O(|U| + |I|). Its appends then copy, and its own
//     successors append into the fork's arrays, never the first line's.
//   - Either way the sorted adjacency is rebuilt for the users that received
//     ratings.
//
// The parent dataset is never mutated and stays fully usable, concurrently
// with the Extend (the serving layer keeps answering against it until the
// engine swap). New users or items must already be interned by the caller;
// identifiers beyond the parent's range simply grow the indexes.
func (d *Dataset) Extend(newRatings []types.Rating) *Dataset {
	numUsers := d.users.Len()
	numItems := d.items.Len()
	for _, r := range newRatings {
		if int(r.User) < 0 || int(r.User) >= numUsers {
			panic(fmt.Sprintf("dataset: Extend rating references user %d outside the interned range [0,%d)", r.User, numUsers))
		}
		if int(r.Item) < 0 || int(r.Item) >= numItems {
			panic(fmt.Sprintf("dataset: Extend rating references item %d outside the interned range [0,%d)", r.Item, numItems))
		}
	}

	// Page tables grown to the current interner sizes, so freshly interned
	// users/items get entries.
	child := &Dataset{
		name:              d.name,
		ratings:           d.ratings,
		users:             d.users,
		items:             d.items,
		byUser:            d.byUser.successor(numUsers),
		byItem:            d.byItem.successor(numItems),
		sortedItemsByUser: d.sortedItemsByUser.successor(numUsers),
	}

	if !d.extended.CompareAndSwap(false, true) {
		// A fork: another successor owns every tail the parent's slices
		// have. With capacity clipped to length, the appends below copy
		// instead of writing there.
		child.ratings = slices.Clip(child.ratings)
		clipAll(child.byUser)
		clipAll(child.byItem)
	}

	child.ratings = append(child.ratings, newRatings...)
	touchedUser := make(map[types.UserID]struct{}, len(newRatings))
	for k, r := range newRatings {
		idx := len(d.ratings) + k
		touchedUser[r.User] = struct{}{}
		byUser, byItem := child.byUser.cow(d.byUser, int(r.User)), child.byItem.cow(d.byItem, int(r.Item))
		*byUser = append(*byUser, idx)
		*byItem = append(*byItem, idx)
	}

	// Re-sort the adjacency of touched users only.
	for u := range touchedUser {
		*child.sortedItemsByUser.cow(d.sortedItemsByUser, int(u)) = child.sortedItems(child.byUser.at(int(u)))
	}
	return child
}

// SubsetUsers returns a new dataset containing only the ratings of the given
// users, sharing identifier spaces with the parent.
func (d *Dataset) SubsetUsers(users []types.UserID) *Dataset {
	keep := make(map[types.UserID]struct{}, len(users))
	for _, u := range users {
		keep[u] = struct{}{}
	}
	var ratings []types.Rating
	for _, r := range d.ratings {
		if _, ok := keep[r.User]; ok {
			ratings = append(ratings, r)
		}
	}
	return d.childFromRatings(d.name+"-subset", ratings)
}

// RelevantTestItems returns, for each user, the set of test items the user
// rated at or above the relevance threshold (the paper uses r_ui ≥ 4). The
// result is indexed by UserID; users without relevant test items map to nil.
func RelevantTestItems(test *Dataset, threshold float64) map[types.UserID][]types.ItemID {
	out := make(map[types.UserID][]types.ItemID, test.NumUsers())
	for _, r := range test.Ratings() {
		if r.Value >= threshold {
			out[r.User] = append(out[r.User], r.Item)
		}
	}
	return out
}
