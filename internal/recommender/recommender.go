// Package recommender defines the interfaces every base recommendation model
// in this library implements, plus the non-personalized baselines the paper
// uses (most-popular, random, item-average) and the shared top-N selection
// machinery.
//
// Two interfaces matter downstream:
//
//   - Scorer produces a relevance score for any (user, item) pair. Latent
//     factor models (RSVD, PSVD, CofiRank) and the non-personalized models
//     all implement it. Scores are model-specific; callers that need [0,1]
//     scores use NormalizedScorer.
//   - TopN produces a ranked top-N list per user, excluding the user's train
//     items. A generic implementation over any Scorer is provided.
package recommender

import (
	"container/heap"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"ganc/internal/dataset"
	"ganc/internal/types"
)

// Scorer scores a single (user, item) pair. Higher is better. Scores may be
// on any scale; see NormalizedScores for a [0,1] mapping.
type Scorer interface {
	// Score returns the model's relevance score of item i for user u.
	Score(u types.UserID, i types.ItemID) float64
	// Name identifies the model in experiment output ("Pop", "RSVD", ...).
	Name() string
}

// BulkScorer is the batch companion of Scorer: one call fills a preallocated
// dense buffer with a user's scores for an explicit item slice. It is the
// contract the index-contiguous candidate pipeline is built on — a user's
// whole candidate set is scored in one call instead of one virtual dispatch
// per (user, item) pair, letting implementations hoist per-user work (factor
// rows, rating lookups, normalization ranges) out of the item loop.
//
// Contract: out must have len(out) == len(items); out[k] receives the score
// of items[k] and every value must equal what Score(u, items[k]) returns at
// the same model state. Implementations must be safe for concurrent use when
// the underlying Scorer is.
type BulkScorer interface {
	Scorer
	// ScoreUser fills out[k] with the score of items[k] for user u.
	ScoreUser(u types.UserID, items []types.ItemID, out []float64)
}

// BulkScores fills out with s's scores for items, using the BulkScorer fast
// path when s implements it and falling back to one Score call per item
// otherwise. It panics if len(out) != len(items), mirroring copy-style APIs.
func BulkScores(s Scorer, u types.UserID, items []types.ItemID, out []float64) {
	if len(out) != len(items) {
		panic(fmt.Sprintf("recommender: BulkScores buffer length %d != item count %d", len(out), len(items)))
	}
	if bs, ok := s.(BulkScorer); ok {
		bs.ScoreUser(u, items, out)
		return
	}
	for k, i := range items {
		out[k] = s.Score(u, i)
	}
}

// BulkScorer32 is the reduced-precision companion of BulkScorer: the same
// batch contract, but scores land in a float32 buffer so the hot path can
// run the float32 kernel tier end to end without a float64 conversion
// pass. Only models whose ScoringPrecision is not PrecisionF64 serve real
// reduced-precision scores through it; Bulk32For gates on that.
//
// Contract: out must have len(out) == len(items); out[k] receives the score
// of items[k]. Unlike BulkScorer's float64 tier, values are NOT required to
// be bit-identical to Score — they must agree with it to the active tier's
// documented tolerance (DESIGN.md §7, §12).
type BulkScorer32 interface {
	Scorer
	// ScoreUser32 fills out[k] with the score of items[k] for user u.
	ScoreUser32(u types.UserID, items []types.ItemID, out []float32)
}

// PrecisionScorer is implemented by models whose bulk path can run at a
// reduced numeric precision (contiguous float32 blocks).
type PrecisionScorer interface {
	// ScoringPrecision reports the tier the model's bulk path currently
	// serves at. Pointwise Score always stays float64.
	ScoringPrecision() types.ScoringPrecision
}

// Bulk32For resolves the float32 bulk path of s: non-nil only when s
// implements BulkScorer32 AND declares a non-f64 scoring precision. At
// PrecisionF64 the float64 path is authoritative (bit-identical to Score),
// so the 32-bit path is never selected for it.
func Bulk32For(s Scorer) (BulkScorer32, bool) {
	bs, ok := s.(BulkScorer32)
	if !ok {
		return nil, false
	}
	ps, ok := s.(PrecisionScorer)
	if !ok || ps.ScoringPrecision() == types.PrecisionF64 {
		return nil, false
	}
	return bs, true
}

// TopN generates ranked recommendation lists.
type TopN interface {
	// Recommend returns the top-N unseen items for user u, ranked best first.
	// Items in exclude (typically the user's train items) are never returned.
	Recommend(u types.UserID, n int, exclude map[types.ItemID]struct{}) types.TopNSet
	Name() string
}

// TopNFrom is the candidate-pipeline extension of TopN: models that can rank
// an explicit pre-filtered candidate slice (typically
// dataset.AppendCandidates, the catalog minus the user's train items) without
// consulting an exclusion map. Engines prefer this path because the candidate
// slice is reusable across users while the map is a per-call allocation.
type TopNFrom interface {
	// RecommendFrom returns the top-n items among candidates, ranked best
	// first. candidates must be sorted in ascending ItemID order and free of
	// duplicates; the model never returns an item outside it.
	RecommendFrom(u types.UserID, n int, candidates []types.ItemID) types.TopNSet
}

// scoredHeap is a min-heap over ScoredItem used for top-N selection.
type scoredHeap []types.ScoredItem

func (h scoredHeap) Len() int { return len(h) }
func (h scoredHeap) Less(a, b int) bool {
	if h[a].Score != h[b].Score {
		return h[a].Score < h[b].Score
	}
	return h[a].Item > h[b].Item
}
func (h scoredHeap) Swap(a, b int)       { h[a], h[b] = h[b], h[a] }
func (h *scoredHeap) Push(x interface{}) { *h = append(*h, x.(types.ScoredItem)) }
func (h *scoredHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// SelectTopN returns the n highest-scoring items among candidates according
// to score, excluding any item in exclude. Ties break toward the smaller item
// identifier so results are deterministic. The candidates callback is invoked
// once per item identifier in [0, numItems).
func SelectTopN(numItems, n int, exclude map[types.ItemID]struct{}, score func(types.ItemID) float64) types.TopNSet {
	if n <= 0 {
		return nil
	}
	h := make(scoredHeap, 0, n+1)
	for idx := 0; idx < numItems; idx++ {
		item := types.ItemID(idx)
		if _, skip := exclude[item]; skip {
			continue
		}
		s := score(item)
		if len(h) < n {
			heap.Push(&h, types.ScoredItem{Item: item, Score: s})
			continue
		}
		// Replace the current minimum when strictly better, or equal score
		// with smaller identifier (to match SortScoredDesc tie-breaking).
		min := h[0]
		if s > min.Score || (s == min.Score && item < min.Item) {
			h[0] = types.ScoredItem{Item: item, Score: s}
			heap.Fix(&h, 0)
		}
	}
	out := make([]types.ScoredItem, len(h))
	copy(out, h)
	types.SortScoredDesc(out)
	set := make(types.TopNSet, len(out))
	for k, si := range out {
		set[k] = si.Item
	}
	return set
}

// SelectTopNFrom returns the n best items of an explicit candidate slice
// according to score(k, item), where k is the candidate's position. Ties
// break toward the smaller item identifier, matching SelectTopN.
func SelectTopNFrom(candidates []types.ItemID, n int, score func(k int, i types.ItemID) float64) types.TopNSet {
	if n <= 0 {
		return nil
	}
	h := make(scoredHeap, 0, n+1)
	for k, item := range candidates {
		s := score(k, item)
		if len(h) < n {
			heap.Push(&h, types.ScoredItem{Item: item, Score: s})
			continue
		}
		min := h[0]
		if s > min.Score || (s == min.Score && item < min.Item) {
			h[0] = types.ScoredItem{Item: item, Score: s}
			heap.Fix(&h, 0)
		}
	}
	out := make([]types.ScoredItem, len(h))
	copy(out, h)
	types.SortScoredDesc(out)
	set := make(types.TopNSet, len(out))
	for k, si := range out {
		set[k] = si.Item
	}
	return set
}

// SelectTopNScored returns the n best items of candidates given their
// pre-computed scores (scores[k] belongs to candidates[k]).
func SelectTopNScored(candidates []types.ItemID, scores []float64, n int) types.TopNSet {
	return SelectTopNFrom(candidates, n, func(k int, _ types.ItemID) float64 { return scores[k] })
}

// scored32 is the float32 counterpart of types.ScoredItem, used by the
// reduced-precision selection path so scores never round-trip through
// float64.
type scored32 struct {
	item  types.ItemID
	score float32
}

// less32 orders a min-heap of scored32: smaller score first, and on equal
// scores the LARGER item first (so the heap minimum is the entry top-N
// selection should evict, matching scoredHeap.Less).
func less32(a, b scored32) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return a.item > b.item
}

func siftUp32(h []scored32, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !less32(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func siftDown32(h []scored32, i int) {
	for {
		left := 2*i + 1
		if left >= len(h) {
			return
		}
		least := left
		if right := left + 1; right < len(h) && less32(h[right], h[left]) {
			least = right
		}
		if !less32(h[least], h[i]) {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// SelectTopNScored32 is SelectTopNScored over float32 scores: same
// replacement rule and the same final ordering (score descending, ties
// toward the smaller item identifier), on a hand-rolled heap so the float32
// hot path has no interface boxing. The final ordering uses an insertion
// sort — n is small, and a sort.Slice closure would be the path's only
// allocation besides the result.
func SelectTopNScored32(candidates []types.ItemID, scores []float32, n int) types.TopNSet {
	if n <= 0 {
		return nil
	}
	h := make([]scored32, 0, n)
	for k, item := range candidates {
		s := scores[k]
		if len(h) < n {
			h = append(h, scored32{item: item, score: s})
			siftUp32(h, len(h)-1)
			continue
		}
		min := h[0]
		if s > min.score || (s == min.score && item < min.item) {
			h[0] = scored32{item: item, score: s}
			siftDown32(h, 0)
		}
	}
	sortScored32Desc(h)
	set := make(types.TopNSet, len(h))
	for k, si := range h {
		set[k] = si.item
	}
	return set
}

// sortScored32Desc insertion-sorts by score descending, ties toward the
// smaller item identifier (the SortScoredDesc order on scored32).
func sortScored32Desc(h []scored32) {
	for i := 1; i < len(h); i++ {
		e := h[i]
		j := i - 1
		for j >= 0 && (h[j].score < e.score || (h[j].score == e.score && h[j].item > e.item)) {
			h[j+1] = h[j]
			j--
		}
		h[j+1] = e
	}
}

// scoreBufPool recycles the per-call score buffers of the candidate ranking
// path, so concurrent RecommendFrom calls (the serving layer) do not allocate
// one catalog-sized slice per request.
var scoreBufPool = sync.Pool{New: func() interface{} { return new([]float64) }}

func getScoreBuf(n int) *[]float64 {
	bp := scoreBufPool.Get().(*[]float64)
	if cap(*bp) < n {
		*bp = make([]float64, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// scoreBuf32Pool is the float32 score arena pool of the reduced-precision
// path. Like scoreBufPool it amortizes catalog-sized buffers across
// concurrent requests; each TopNEngine worker's sequential Get/Put cycle
// keeps one arena hot per worker without any per-worker bookkeeping.
var scoreBuf32Pool = sync.Pool{New: func() interface{} { return new([]float32) }}

func getScoreBuf32(n int) *[]float32 {
	bp := scoreBuf32Pool.Get().(*[]float32)
	if cap(*bp) < n {
		*bp = make([]float32, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// ScorerTopN adapts any Scorer into a TopN by exhaustively scoring the item
// space (the paper's "all unrated items" ranking protocol).
type ScorerTopN struct {
	Scorer   Scorer
	NumItems int
}

// Recommend implements TopN.
func (s *ScorerTopN) Recommend(u types.UserID, n int, exclude map[types.ItemID]struct{}) types.TopNSet {
	return SelectTopN(s.NumItems, n, exclude, func(i types.ItemID) float64 {
		return s.Scorer.Score(u, i)
	})
}

// RecommendFrom implements TopNFrom: the candidates are scored in one bulk
// call into a pooled arena and the top n selected from it. Models serving a
// reduced precision tier (Bulk32For) run the float32 arena end to end —
// scoring kernel through heap selection — with no float64 conversion.
func (s *ScorerTopN) RecommendFrom(u types.UserID, n int, candidates []types.ItemID) types.TopNSet {
	if bs32, ok := Bulk32For(s.Scorer); ok {
		bp := getScoreBuf32(len(candidates))
		defer scoreBuf32Pool.Put(bp)
		bs32.ScoreUser32(u, candidates, *bp)
		return SelectTopNScored32(candidates, *bp, n)
	}
	bp := getScoreBuf(len(candidates))
	defer scoreBufPool.Put(bp)
	BulkScores(s.Scorer, u, candidates, *bp)
	return SelectTopNScored(candidates, *bp, n)
}

// Name implements TopN.
func (s *ScorerTopN) Name() string { return s.Scorer.Name() }

// --- Non-personalized baselines ---------------------------------------------

// Pop recommends items by train-set popularity (the paper's "Most popular"
// accuracy recommender). Its score for an item is the item's rating count.
type Pop struct {
	pop  []int
	name string
}

// NewPop builds the popularity model from the train set.
func NewPop(train *dataset.Dataset) *Pop {
	return &Pop{pop: train.PopularityVector(), name: "Pop"}
}

// NewPopFromCounts builds the popularity model from an explicit per-item
// rating-count vector (indexed by ItemID). The streaming-ingestion layer
// maintains such counts incrementally and rebuilds the model from them
// instead of recounting the whole dataset; the persistence layer restores
// them from a snapshot. The slice is copied.
func NewPopFromCounts(counts []int) *Pop {
	pop := make([]int, len(counts))
	copy(pop, counts)
	return &Pop{pop: pop, name: "Pop"}
}

// Counts returns a copy of the per-item rating counts backing the model (the
// quantity persisted in engine snapshots).
func (p *Pop) Counts() []int {
	out := make([]int, len(p.pop))
	copy(out, p.pop)
	return out
}

// Score implements Scorer; the score is the raw popularity count.
func (p *Pop) Score(_ types.UserID, i types.ItemID) float64 {
	if int(i) < 0 || int(i) >= len(p.pop) {
		return 0
	}
	return float64(p.pop[i])
}

// ScoreUser implements BulkScorer: a vectorized popularity lookup.
func (p *Pop) ScoreUser(_ types.UserID, items []types.ItemID, out []float64) {
	for k, i := range items {
		if int(i) < 0 || int(i) >= len(p.pop) {
			out[k] = 0
			continue
		}
		out[k] = float64(p.pop[i])
	}
}

// Name implements Scorer.
func (p *Pop) Name() string { return p.name }

// Recommend implements TopN directly (slightly faster than going through
// ScorerTopN since the scores do not depend on the user).
func (p *Pop) Recommend(_ types.UserID, n int, exclude map[types.ItemID]struct{}) types.TopNSet {
	return SelectTopN(len(p.pop), n, exclude, func(i types.ItemID) float64 { return float64(p.pop[i]) })
}

// RecommendFrom implements TopNFrom over an explicit candidate slice.
func (p *Pop) RecommendFrom(_ types.UserID, n int, candidates []types.ItemID) types.TopNSet {
	return SelectTopNFrom(candidates, n, func(_ int, i types.ItemID) float64 {
		if int(i) < 0 || int(i) >= len(p.pop) {
			return 0
		}
		return float64(p.pop[i])
	})
}

// Rand recommends unseen items uniformly at random. It has maximal coverage
// and minimal accuracy, and anchors the coverage end of every trade-off plot
// in the paper.
type Rand struct {
	numItems int
	rng      *rand.Rand
	name     string
}

// NewRand builds the random recommender over a catalog of numItems items.
func NewRand(numItems int, seed int64) *Rand {
	return &Rand{numItems: numItems, rng: rand.New(rand.NewSource(seed)), name: "Rand"}
}

// Score implements Scorer with a uniform random score. Successive calls for
// the same pair return different values; Rand exists for ranking, not for
// reproducible pointwise scoring.
func (r *Rand) Score(_ types.UserID, _ types.ItemID) float64 { return r.rng.Float64() }

// Name implements Scorer.
func (r *Rand) Name() string { return r.name }

// Recommend implements TopN by sampling n distinct unseen items.
func (r *Rand) Recommend(_ types.UserID, n int, exclude map[types.ItemID]struct{}) types.TopNSet {
	if n <= 0 {
		return nil
	}
	// Reservoir-sample n items from the eligible set.
	out := make(types.TopNSet, 0, n)
	seen := 0
	for idx := 0; idx < r.numItems; idx++ {
		item := types.ItemID(idx)
		if _, skip := exclude[item]; skip {
			continue
		}
		seen++
		if len(out) < n {
			out = append(out, item)
			continue
		}
		j := r.rng.Intn(seen)
		if j < n {
			out[j] = item
		}
	}
	// Shuffle so position carries no popularity information.
	r.rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// RecommendFrom implements TopNFrom by reservoir-sampling n candidates.
func (r *Rand) RecommendFrom(_ types.UserID, n int, candidates []types.ItemID) types.TopNSet {
	if n <= 0 {
		return nil
	}
	out := make(types.TopNSet, 0, n)
	for seen, item := range candidates {
		if len(out) < n {
			out = append(out, item)
			continue
		}
		if j := r.rng.Intn(seen + 1); j < n {
			out[j] = item
		}
	}
	r.rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// ItemAvg scores items by their mean train rating, shrunk toward the global
// mean for rarely rated items (a damped mean with pseudo-count lambda). The
// RBT re-ranker's "Avg" criterion uses it.
type ItemAvg struct {
	avg    []float64
	lambda float64
	name   string
}

// NewItemAvg computes damped item means from the train set. lambda is the
// shrinkage pseudo-count; 0 gives raw means.
func NewItemAvg(train *dataset.Dataset, lambda float64) *ItemAvg {
	global := train.MeanRating()
	sums := make([]float64, train.NumItems())
	counts := make([]int, train.NumItems())
	for i := 0; i < train.NumItems(); i++ {
		idxs := train.ItemRatings(types.ItemID(i))
		for _, idx := range idxs {
			sums[i] += train.Rating(idx).Value
		}
		counts[i] = len(idxs)
	}
	return NewItemAvgFromStats(sums, counts, lambda, global)
}

// NewItemAvgFromStats builds the damped-mean model from explicit per-item
// rating sums and counts plus the global mean. The streaming-ingestion layer
// maintains these statistics incrementally (one add per event) and rebuilds
// the model from them without rescanning the dataset. sums and counts must
// have equal length; both are consumed read-only.
func NewItemAvgFromStats(sums []float64, counts []int, lambda, global float64) *ItemAvg {
	avg := make([]float64, len(sums))
	for i := range sums {
		avg[i] = (sums[i] + lambda*global) / (float64(counts[i]) + lambdaOrOne(lambda, counts[i]))
	}
	return &ItemAvg{avg: avg, lambda: lambda, name: "ItemAvg"}
}

// NewItemAvgFromAverages restores the model directly from its damped means
// (the quantity persisted in engine snapshots). The slice is copied.
func NewItemAvgFromAverages(avg []float64, lambda float64) *ItemAvg {
	out := make([]float64, len(avg))
	copy(out, avg)
	return &ItemAvg{avg: out, lambda: lambda, name: "ItemAvg"}
}

// Averages returns a copy of the per-item damped means.
func (a *ItemAvg) Averages() []float64 {
	out := make([]float64, len(a.avg))
	copy(out, a.avg)
	return out
}

// Lambda returns the shrinkage pseudo-count the model was built with.
func (a *ItemAvg) Lambda() float64 { return a.lambda }

func lambdaOrOne(lambda float64, n int) float64 {
	if lambda == 0 && n == 0 {
		return 1 // avoid 0/0 for never-rated items; their mean is 0
	}
	return lambda
}

// Score implements Scorer.
func (a *ItemAvg) Score(_ types.UserID, i types.ItemID) float64 {
	if int(i) < 0 || int(i) >= len(a.avg) {
		return 0
	}
	return a.avg[i]
}

// ScoreUser implements BulkScorer: a vectorized damped-mean lookup.
func (a *ItemAvg) ScoreUser(_ types.UserID, items []types.ItemID, out []float64) {
	for k, i := range items {
		if int(i) < 0 || int(i) >= len(a.avg) {
			out[k] = 0
			continue
		}
		out[k] = a.avg[i]
	}
}

// Name implements Scorer.
func (a *ItemAvg) Name() string { return a.name }

// Avg returns the damped mean of item i (same value Score returns).
func (a *ItemAvg) Avg(i types.ItemID) float64 { return a.Score(0, i) }

// --- Score normalization -----------------------------------------------------

// NormalizedScorer wraps a Scorer and rescales each user's scores over the
// whole catalog to [0,1] by min–max normalization, as the paper does before
// plugging predicted ratings into the GANC value function. A user's range is
// computed on first use and kept in a range table. The table can outlive the
// normaliser: ForCatalog hands it to the normaliser of a later, larger
// catalog, which then scores only the items the entry does not cover yet —
// for a frozen inner model that makes the range a once-per-user cost instead
// of a once-per-generation one. It is safe for concurrent use provided the
// wrapped Scorer is (the latent-factor models are read-only after training).
type NormalizedScorer struct {
	inner    Scorer
	numItems int
	ranges   *rangeTable
}

// rangeTable holds the per-user score ranges of one inner scorer, shared by
// every NormalizedScorer derived from the first through ForCatalog.
type rangeTable struct {
	mu     sync.Mutex
	byUser map[types.UserID]scoreRange
	// catalog is the identity slice [0, len) the bulk range computation
	// scores against. It only ever grows, and written elements never change,
	// so a prefix handed out under mu stays valid without it.
	catalog []types.ItemID
}

// scoreRange is the min and max of a user's scores over items [0, upTo).
type scoreRange struct {
	min, max float64
	upTo     int
}

// fold extends the range over the scores of items [upTo, upTo+len(scores)).
// It performs the comparisons of one scan over [0, upTo+len(scores)) from
// where the scan over [0, upTo) stopped, so a range folded in steps is bit
// for bit the range of a single full scan.
func (r scoreRange) fold(scores []float64) scoreRange {
	for _, s := range scores {
		if r.upTo == 0 || s < r.min {
			r.min = s
		}
		if r.upTo == 0 || s > r.max {
			r.max = s
		}
		r.upTo++
	}
	return r
}

// identityLocked returns the identity slice grown to at least n items.
// Callers hold t.mu.
func (t *rangeTable) identityLocked(n int) []types.ItemID {
	for len(t.catalog) < n {
		t.catalog = append(t.catalog, types.ItemID(len(t.catalog)))
	}
	return t.catalog
}

// NewNormalizedScorer wraps inner for a catalog of numItems items, with an
// empty range table.
func NewNormalizedScorer(inner Scorer, numItems int) *NormalizedScorer {
	return &NormalizedScorer{
		inner:    inner,
		numItems: numItems,
		ranges:   &rangeTable{byUser: make(map[types.UserID]scoreRange)},
	}
}

// ForCatalog returns a normaliser of the same inner scorer over a catalog of
// numItems items that shares this one's range table. It is only correct while
// the inner scorer's score for a (user, item) pair never changes — a trained
// factor model kept frozen across ingestion batches; a model whose statistics
// move needs a fresh NewNormalizedScorer. Normalisers of different catalog
// sizes may serve concurrently (the generation being retired and its
// successor): each reads exactly the range of its own catalog.
func (n *NormalizedScorer) ForCatalog(numItems int) *NormalizedScorer {
	return &NormalizedScorer{inner: n.inner, numItems: numItems, ranges: n.ranges}
}

// Score implements Scorer, returning the inner score min–max normalized over
// the user's full catalog scores.
func (n *NormalizedScorer) Score(u types.UserID, i types.ItemID) float64 {
	min, span := n.userRange(u)
	if span == 0 {
		return 0
	}
	v := (n.inner.Score(u, i) - min) / span
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// ScoreUser implements BulkScorer: the normalization range is resolved once
// and the inner scorer's bulk path fills the buffer before the min–max map.
func (n *NormalizedScorer) ScoreUser(u types.UserID, items []types.ItemID, out []float64) {
	min, span := n.userRange(u)
	BulkScores(n.inner, u, items, out)
	if span == 0 {
		for k := range out {
			out[k] = 0
		}
		return
	}
	for k := range out {
		v := (out[k] - min) / span
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		out[k] = v
	}
}

// ScoreUser32 implements BulkScorer32 by normalizing the inner model's
// float32 bulk scores in float32 arithmetic. Only meaningful when the inner
// model serves a reduced precision tier (see ScoringPrecision); the
// normalization range itself is the cached float64 pair, truncated.
func (n *NormalizedScorer) ScoreUser32(u types.UserID, items []types.ItemID, out []float32) {
	min, span := n.userRange(u)
	if bs32, ok := Bulk32For(n.inner); ok {
		bs32.ScoreUser32(u, items, out)
	} else {
		bp := getScoreBuf(len(items))
		BulkScores(n.inner, u, items, *bp)
		for k, v := range *bp {
			out[k] = float32(v)
		}
		scoreBufPool.Put(bp)
	}
	if span == 0 {
		for k := range out {
			out[k] = 0
		}
		return
	}
	min32, inv32 := float32(min), 1/float32(span)
	for k := range out {
		v := (out[k] - min32) * inv32
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		out[k] = v
	}
}

// ScoringPrecision implements PrecisionScorer by delegating to the wrapped
// model; wrappers never change the tier, only the scale of the scores.
func (n *NormalizedScorer) ScoringPrecision() types.ScoringPrecision {
	if ps, ok := n.inner.(PrecisionScorer); ok {
		return ps.ScoringPrecision()
	}
	return types.PrecisionF64
}

// userRange resolves u's normalization range over this normaliser's catalog.
// A table entry covering exactly the catalog is the answer. One covering a
// prefix (an earlier generation computed it) is extended over the missing
// items through the same bulk scoring call and stored back. One covering
// more (a later generation got there first) is of no use to this reader: it
// rescans its own catalog and leaves the entry alone.
func (n *NormalizedScorer) userRange(u types.UserID) (min, span float64) {
	t := n.ranges
	t.mu.Lock()
	r, ok := t.byUser[u]
	if ok && r.upTo == n.numItems {
		t.mu.Unlock()
		return r.min, r.max - r.min
	}
	catalog := t.identityLocked(n.numItems)
	t.mu.Unlock()

	if !ok || r.upTo > n.numItems {
		r = scoreRange{}
	}
	missing := catalog[r.upTo:n.numItems]
	bp := getScoreBuf(len(missing))
	BulkScores(n.inner, u, missing, *bp)
	r = r.fold(*bp)
	scoreBufPool.Put(bp)

	t.mu.Lock()
	if cur, ok := t.byUser[u]; !ok || cur.upTo < r.upTo {
		t.byUser[u] = r
	}
	t.mu.Unlock()
	return r.min, r.max - r.min
}

// Name implements Scorer.
func (n *NormalizedScorer) Name() string { return n.inner.Name() }

// --- Batch recommendation helpers --------------------------------------------

// recommendOne resolves one user's list through the candidate pipeline when
// the model supports it (TopNFrom + a reusable candidate buffer) and the
// legacy exclusion-map path otherwise. It returns the possibly-grown buffer.
func recommendOne(model TopN, train *dataset.Dataset, u types.UserID, n int, candBuf []types.ItemID) (types.TopNSet, []types.ItemID) {
	if cm, ok := model.(TopNFrom); ok {
		candBuf = train.AppendCandidates(u, candBuf[:0])
		return cm.RecommendFrom(u, n, candBuf), candBuf
	}
	return model.Recommend(u, n, train.UserItemSet(u)), candBuf
}

// RecommendAll produces the top-N collection for every user in the train set
// using model, excluding each user's train items (the all-unrated-items
// protocol).
func RecommendAll(model TopN, train *dataset.Dataset, n int) types.Recommendations {
	recs := make(types.Recommendations, train.NumUsers())
	var candBuf []types.ItemID
	for u := 0; u < train.NumUsers(); u++ {
		uid := types.UserID(u)
		recs[uid], candBuf = recommendOne(model, train, uid, n, candBuf)
	}
	return recs
}

// TopNEngine adapts any TopN model into the Engine shape shared by the facade
// and the serving layer: per-user on-demand recommendation plus batch
// generation, both excluding each user's train items. The zero value is not
// usable; Model, Train and N are required.
type TopNEngine struct {
	// Model produces the ranked lists. Models implementing TopNFrom are
	// served through the index-contiguous candidate pipeline.
	Model TopN
	// Train supplies the user universe and per-user exclusion sets.
	Train *dataset.Dataset
	// N is the default list size when a request passes n ≤ 0.
	N int
	// Workers shards RecommendAll over user ranges; values ≤ 1 run
	// sequentially. Leave at 0 for models whose scoring is not safe for
	// concurrent use (e.g. Rand's shared rng).
	Workers int
}

// Name identifies the underlying model.
func (e *TopNEngine) Name() string { return e.Model.Name() }

// TopN returns the engine's default list size.
func (e *TopNEngine) TopN() int { return e.N }

// RecommendUser computes one user's list on demand.
func (e *TopNEngine) RecommendUser(ctx context.Context, u types.UserID, n int) (types.TopNSet, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if int(u) < 0 || int(u) >= e.Train.NumUsers() {
		return nil, fmt.Errorf("recommender: user %d out of range [0,%d)", u, e.Train.NumUsers())
	}
	if n <= 0 {
		n = e.N
	}
	bp := candBufPool.Get().(*[]types.ItemID)
	set, buf := recommendOne(e.Model, e.Train, u, n, *bp)
	*bp = buf
	candBufPool.Put(bp)
	return set, nil
}

// candBufPool recycles candidate buffers across concurrent RecommendUser
// calls, so the online serving hot path does not allocate one catalog-sized
// slice per request.
var candBufPool = sync.Pool{New: func() interface{} { return new([]types.ItemID) }}

// RecommendAll generates the full collection. With Workers > 1 the user space
// is split into contiguous ranges, one goroutine per range, each reusing its
// own candidate buffer; per-user results land in a shared slice so no mutex
// is needed. Cancellation is checked between users.
func (e *TopNEngine) RecommendAll(ctx context.Context) (types.Recommendations, error) {
	numUsers := e.Train.NumUsers()
	sets := make([]types.TopNSet, numUsers)
	workers := e.Workers
	if workers > numUsers {
		workers = numUsers
	}
	if workers <= 1 {
		var candBuf []types.ItemID
		for u := 0; u < numUsers; u++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			sets[u], candBuf = recommendOne(e.Model, e.Train, types.UserID(u), e.N, candBuf)
		}
	} else {
		var wg sync.WaitGroup
		for _, r := range ShardRanges(numUsers, workers) {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				var candBuf []types.ItemID
				for u := lo; u < hi; u++ {
					if ctx.Err() != nil {
						return
					}
					sets[u], candBuf = recommendOne(e.Model, e.Train, types.UserID(u), e.N, candBuf)
				}
			}(r.Lo, r.Hi)
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	recs := make(types.Recommendations, numUsers)
	for u, set := range sets {
		recs[types.UserID(u)] = set
	}
	return recs, nil
}

// Range is one contiguous [Lo, Hi) user shard of a parallel sweep.
type Range struct{ Lo, Hi int }

// ShardRanges splits [0, count) into at most workers near-equal contiguous
// ranges. Every shard is non-empty.
func ShardRanges(count, workers int) []Range {
	if workers < 1 {
		workers = 1
	}
	if workers > count {
		workers = count
	}
	out := make([]Range, 0, workers)
	for w := 0; w < workers; w++ {
		lo := count * w / workers
		hi := count * (w + 1) / workers
		if lo < hi {
			out = append(out, Range{Lo: lo, Hi: hi})
		}
	}
	return out
}

// Describe returns a one-line description of a recommendation collection,
// useful for logs and CLI output.
func Describe(recs types.Recommendations, numItems int) string {
	distinct := len(recs.DistinctItems())
	return fmt.Sprintf("%d users, %d distinct items recommended (%.1f%% of catalog)",
		recs.NumUsers(), distinct, 100*float64(distinct)/float64(maxInt(numItems, 1)))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// SortItemsByScoreDesc is a convenience wrapper used by re-rankers that need
// a full ranking rather than just the top N.
func SortItemsByScoreDesc(items []types.ItemID, score func(types.ItemID) float64) {
	sort.Slice(items, func(a, b int) bool {
		sa, sb := score(items[a]), score(items[b])
		if sa != sb {
			return sa > sb
		}
		return items[a] < items[b]
	})
}
