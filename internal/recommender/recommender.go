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
//   - TopN ranks an explicit candidate slice (the catalog minus the user's
//     train items under the all-unrated-items protocol). It has this one
//     form: every model — ScorerTopN over any Scorer, Rand, the re-rankers —
//     is handed its candidates and selects through SelectTop, and
//     RecommendAll / TopNEngine enumerate them once per user.
package recommender

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"ganc/internal/dataset"
	"ganc/internal/linalg"
	"ganc/internal/types"
)

// Scorer scores a single (user, item) pair. Higher is better. Scores may be
// on any scale; see NormalizedScorer for a [0,1] mapping.
type Scorer interface {
	// Score returns the model's relevance score of item i for user u.
	Score(u types.UserID, i types.ItemID) float64
	// Name identifies the model in experiment output ("Pop", "RSVD", ...).
	Name() string
}

// BulkScorer is the batch companion of Scorer: one call fills a preallocated
// dense buffer with a user's scores for an explicit item slice. It is the
// contract the index-contiguous candidate pipeline is built on — a user's
// whole catalog or candidate set is scored in one call instead of one
// virtual dispatch per (user, item) pair, letting implementations hoist
// per-user work (factor rows, rating lookups, normalization ranges) out of
// the item loop.
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

// BulkScorer32 is the float32 bulk contract, and the only bulk body of the
// latent-factor models (RSVD, PSVD, CofiRank): scores land in a float32
// buffer straight from the row kernel over contiguous float32 factor blocks,
// so the hot path runs kernel through heap selection with no float64
// conversion pass.
//
// Contract: out must have len(out) == len(items); out[k] receives the score
// of items[k]. Unlike BulkScorer's, values are NOT required to be
// bit-identical to Score — they must agree with it to the documented
// tolerance (DESIGN.md §7, §12). Which bulk path a model has is read off its
// type; a model implementing both serves BulkScorer's float64 callers from
// ScoreUser.
type BulkScorer32 interface {
	Scorer
	// ScoreUser32 fills out[k] with the score of items[k] for user u.
	ScoreUser32(u types.UserID, items []types.ItemID, out []float32)
}

// CatalogScorer32 is a BulkScorer32 with a body for the one list a turn
// scores, the whole catalog: the items [0, len(out)) in order, whose model
// rows and per-item terms are contiguous, so the model takes them in
// contiguous passes instead of item by item. RSVD, PSVD and CofiRank have it.
//
// Contract: ScoreCatalog32(u, out) fills out exactly as ScoreUser32(u,
// types.CatalogItems(len(out)), out) does, bit for bit.
type CatalogScorer32 interface {
	BulkScorer32
	// ScoreCatalog32 fills out[i] with the score of item i for user u.
	ScoreCatalog32(u types.UserID, out []float32)
}

// CatalogBounder32 is a CatalogScorer32 with a bound twin of its catalog body:
// the same epilogue over upper, and on request lower, bounds of the kernel
// dots instead of the dots, so a caller can rule items out before it scores
// them. RSVD, PSVD and CofiRank have it.
//
// Contract: lower is nil or as long as upper. When BoundCatalog32(u, upper,
// lower) reports true, every upper[i] is NaN or at least the out[i]
// ScoreCatalog32(u, out) gives, and every lower[i] NaN or at most it; the
// score is not NaN where either bound is not, so an item whose score is NaN
// has NaN bounds. When it reports false, it bounds nothing and both rows are
// unspecified.
type CatalogBounder32 interface {
	CatalogScorer32
	// BoundCatalog32 fills upper[i], and lower[i] when lower is not nil,
	// with bounds of the score of item i for user u, and reports whether it
	// could.
	BoundCatalog32(u types.UserID, upper, lower []float32) bool
}

// BulkScores fills out with s's scores for items: the BulkScorer path when s
// has one; for a model whose only bulk body is the float32 one, those scores
// widened — its float64 bulk scores are its float32 scores, never a second
// computation; and one Score call per item otherwise. It panics if
// len(out) != len(items), mirroring copy-style APIs.
func BulkScores(s Scorer, u types.UserID, items []types.ItemID, out []float64) {
	if len(out) != len(items) {
		panic(fmt.Sprintf("recommender: BulkScores buffer length %d != item count %d", len(out), len(items)))
	}
	switch bs := s.(type) {
	case BulkScorer:
		bs.ScoreUser(u, items, out)
	case BulkScorer32:
		widened(out, func(out []float32) { bs.ScoreUser32(u, items, out) })
	default:
		for k, i := range items {
			out[k] = s.Score(u, i)
		}
	}
}

// widened fills out with the float32 scores score writes into a pooled
// buffer of its length, widened.
func widened(out []float64, score func(out []float32)) {
	bp := scoreBuf32Pool.get(len(out))
	score(*bp)
	for k, v := range *bp {
		out[k] = float64(v)
	}
	scoreBuf32Pool.put(bp)
}

// TopN generates ranked recommendation lists.
type TopN interface {
	// Recommend returns the top-n items among candidates for user u, ranked
	// best first. candidates (typically dataset.AppendCandidates, the catalog
	// minus the user's train items) must be free of duplicates; the model
	// never returns an item outside it.
	Recommend(u types.UserID, n int, candidates []types.ItemID) types.TopNSet
	Name() string
}

// scored is one entry of a TopHeap.
type scored[T float32 | float64] struct {
	item  types.ItemID
	score T
}

// worse is the one ranking rule of the library: a smaller score ranks below a
// larger one, and on equal scores the larger item identifier ranks below the
// smaller, so results are deterministic.
func (a scored[T]) worse(b scored[T]) bool {
	return a.score < b.score || (a.score == b.score && a.item > b.item)
}

// RanksBelow reports whether (item, score) ranks strictly below (than,
// thanScore) under worse, the rule TopHeap orders by. A NaN score ranks
// below nothing.
func RanksBelow[T float32 | float64](item types.ItemID, score T, than types.ItemID, thanScore T) bool {
	return scored[T]{item: item, score: score}.worse(scored[T]{item: than, score: thanScore})
}

// TopHeap keeps the best of the (item, score) pairs offered to it, as many as
// it was made for, in a min-heap whose root is the worst of them: the first
// offers fill it, whatever they score, and a later one replaces the root when
// the root is worse. Every selection in the library is a loop over one, at
// its own score width: float32 scores never round-trip through float64.
type TopHeap[T float32 | float64] struct{ h []scored[T] }

// NewTopHeap returns an empty heap that keeps n entries (its one allocation).
func NewTopHeap[T float32 | float64](n int) TopHeap[T] { return TopHeap[T]{make([]scored[T], 0, n)} }

// Offer keeps (item, score) if the heap has room or its root is worse, and
// returns the bar: the score under which a later offer cannot be kept, so a
// loop may drop it unoffered — −Inf, where a loop starts, until the heap is
// full. A score that ties the bar must be offered: its identifier decides.
func (t *TopHeap[T]) Offer(item types.ItemID, score T) T {
	e := scored[T]{item: item, score: score}
	if h := t.h; len(h) < cap(h) {
		t.h = append(h, e)
		for i := len(h); i > 0 && t.h[i].worse(t.h[(i-1)/2]); i = (i - 1) / 2 { // sift up
			t.h[i], t.h[(i-1)/2] = t.h[(i-1)/2], t.h[i]
		}
	} else if len(h) > 0 && h[0].worse(e) {
		h[0] = e
		siftDown(h, 0)
	}
	if len(t.h) < cap(t.h) || len(t.h) == 0 {
		return T(math.Inf(-1))
	}
	return t.h[0].score
}

// Ranked returns the kept items, best first, and leaves the heap spent. They
// are ordered by insertion: there are few, and a sort.Slice closure would be
// the path's only allocation besides the heap and the result.
func (t *TopHeap[T]) Ranked() types.TopNSet {
	h := t.h
	for i := 1; i < len(h); i++ {
		e := h[i]
		j := i - 1
		for ; j >= 0 && h[j].worse(e); j-- {
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

// SelectTop returns the n best items of candidates given their pre-computed
// scores (scores[k] belongs to candidates[k]), best first.
func SelectTop[T float32 | float64](candidates []types.ItemID, scores []T, n int) types.TopNSet {
	if n <= 0 {
		return nil
	}
	h := NewTopHeap[T](min(n, len(candidates)))
	bar := T(math.Inf(-1))
	for k, item := range candidates {
		if s := scores[k]; !(s < bar) {
			bar = h.Offer(item, s)
		}
	}
	return h.Ranked()
}

func siftDown[T float32 | float64](h []scored[T], i int) {
	for {
		least := 2*i + 1
		if least >= len(h) {
			return
		}
		if right := least + 1; right < len(h) && h[right].worse(h[least]) {
			least = right
		}
		if !h[least].worse(h[i]) {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// bufPool recycles slices of T across calls, so the serving layer's concurrent
// requests do not allocate a catalog-sized slice each.
type bufPool[T any] struct{ pool sync.Pool }

// get returns a pooled buffer of n elements; the contents are unspecified.
func (p *bufPool[T]) get(n int) *[]T {
	bp, _ := p.pool.Get().(*[]T)
	if bp == nil {
		bp = new([]T)
	}
	if cap(*bp) < n {
		*bp = make([]T, n)
	}
	*bp = (*bp)[:n]
	return bp
}

func (p *bufPool[T]) put(bp *[]T) { p.pool.Put(bp) }

// The score arenas of the candidate ranking path, one per score width, and
// the candidate buffers of RecommendUser.
var (
	scoreBufPool   bufPool[float64]
	scoreBuf32Pool bufPool[float32]
	candBufPool    bufPool[types.ItemID]
)

// ScorerTopN adapts any Scorer into a TopN: the candidates are scored in one
// bulk call into a pooled arena and the top n selected from it. A BulkScorer32
// runs the float32 arena end to end — scoring kernel through heap selection —
// with no float64 conversion.
type ScorerTopN struct {
	Scorer Scorer
}

// Recommend implements TopN.
func (s *ScorerTopN) Recommend(u types.UserID, n int, candidates []types.ItemID) types.TopNSet {
	if bs32, ok := s.Scorer.(BulkScorer32); ok {
		bp := scoreBuf32Pool.get(len(candidates))
		defer scoreBuf32Pool.put(bp)
		bs32.ScoreUser32(u, candidates, *bp)
		return SelectTop(candidates, *bp, n)
	}
	bp := scoreBufPool.get(len(candidates))
	defer scoreBufPool.put(bp)
	BulkScores(s.Scorer, u, candidates, *bp)
	return SelectTop(candidates, *bp, n)
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

// Rand recommends unseen items uniformly at random. It has maximal coverage
// and minimal accuracy, and anchors the coverage end of every trade-off plot
// in the paper. It is safe for concurrent use: every draw is taken under mu,
// so a served Rand does not race on its generator.
type Rand struct {
	mu   sync.Mutex
	rng  *rand.Rand
	name string
}

// NewRand builds the random recommender.
func NewRand(seed int64) *Rand {
	return &Rand{rng: rand.New(rand.NewSource(seed)), name: "Rand"}
}

// Score implements Scorer with a uniform random score. Successive calls for
// the same pair return different values; Rand exists for ranking, not for
// reproducible pointwise scoring.
func (r *Rand) Score(_ types.UserID, _ types.ItemID) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rng.Float64()
}

// ScoreUser implements BulkScorer: one draw per item, in item order — the
// sequence the same Score calls would consume — with the mutex taken once.
func (r *Rand) ScoreUser(_ types.UserID, items []types.ItemID, out []float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k := range items {
		out[k] = r.rng.Float64()
	}
}

// Name implements Scorer.
func (r *Rand) Name() string { return r.name }

// Recommend implements TopN by reservoir-sampling n distinct candidates.
func (r *Rand) Recommend(_ types.UserID, n int, candidates []types.ItemID) types.TopNSet {
	if n <= 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
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
	// Shuffle so position carries no popularity information.
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
// plugging predicted ratings into the GANC value function: it is GANC's
// accuracy recommender a(i) over a scoring model, and implements core's
// AccuracyRecommender, BulkAccuracy and BulkAccuracy32. A user's range is
// computed on first use and kept in a range table. The table can outlive the
// normaliser: ForCatalog hands it to the normaliser of a later, larger
// catalog, which then folds in only the items the entry does not cover yet —
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
}

// scoreRange is the min and max of a user's scores over items [0, upTo).
type scoreRange struct {
	min, max float64
	upTo     int
}

// span is the width the min–max map divides by; 0 maps every score to 0.
func (r scoreRange) span() float64 { return r.max - r.min }

// fold extends r over the scores of items [upTo, upTo+len(scores)). It
// performs the comparisons of one scan over [0, upTo+len(scores)) from where
// the scan over [0, upTo) stopped, so a range folded in steps is bit for bit
// the range of a single full scan. The extremes run at the width of the
// scores: float32 values widened are exact and keep their order, so a factor
// model's float32 range is that of the same scores widened through BulkScores.
func fold[T float32 | float64](r scoreRange, scores []T) scoreRange {
	lo, hi := T(r.min), T(r.max)
	if r.upTo == 0 && len(scores) > 0 {
		lo, hi = scores[0], scores[0]
	}
	for _, s := range scores {
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	return scoreRange{min: float64(lo), max: float64(hi), upTo: r.upTo + len(scores)}
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

// MinMax is a user's min–max map in the arithmetic of T: At takes a raw inner
// score to its place in [0,1] over the user's catalog-wide range. The float64
// map divides by the span (divide; scale is the span), the float32 map
// multiplies by the reciprocal of the truncated span: not the same bits, and
// each width keeps the expression its lists were always computed in.
type MinMax[T float32 | float64] struct {
	min, scale T
	divide     bool
}

// Identity is the map of scores that already are accuracy scores: At clamps
// them to [0,1] and changes nothing else.
func Identity[T float32 | float64]() MinMax[T] { return MinMax[T]{scale: 1} }

// At maps one raw score: (raw − min) over the span, clamped to [0,1]. A NaN
// stays a NaN.
func (m MinMax[T]) At(raw T) T {
	v := raw - m.min
	if m.divide {
		v /= m.scale
	} else {
		v *= m.scale
	}
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Affine returns the map as (raw − min)·scale before the clamp, for a caller
// that applies it in a kernel of its own. A map that divides by its span (a
// float64 map of a range; a float32 map never divides) has no such form, and
// Affine panics on one.
func (m MinMax[T]) Affine() (min, scale T) {
	if m.divide {
		panic("recommender: Affine of a map that divides by its span")
	}
	return m.min, m.scale
}

// map64 is the float64 map of range r for the raw scores in out. A span of 0
// has no map: out is zeroed and the map is the identity.
func map64(r scoreRange, out []float64) MinMax[float64] {
	if r.span() == 0 {
		clear(out)
		return Identity[float64]()
	}
	return MinMax[float64]{min: r.min, scale: r.span(), divide: true}
}

// map32 is map64 in float32 arithmetic over the float64 range, truncated.
func map32(r scoreRange, out []float32) MinMax[float32] {
	if r.span() == 0 {
		clear(out)
		return Identity[float32]()
	}
	return MinMax[float32]{min: float32(r.min), scale: 1 / float32(r.span())}
}

// AccuracyScore is a(i) of the accuracy recommender (core.AccuracyRecommender):
// the inner score min–max normalized over the user's full catalog scores; a
// span of 0 maps every score to 0.
func (n *NormalizedScorer) AccuracyScore(u types.UserID, i types.ItemID) float64 {
	r := n.rangeOf(u)
	if r.span() == 0 {
		return 0
	}
	return map64(r, nil).At(n.inner.Score(u, i))
}

// RawScores32 fills out with the inner model's float32 bulk scores of items
// and returns the map that normalises them, for a caller that walks the
// scores anyway to apply it in its own loop. Around a model with no float32
// path there is nothing to keep in float32: out receives the inner model's
// float64 bulk scores normalised, truncated, and the map is the identity.
func (n *NormalizedScorer) RawScores32(u types.UserID, items []types.ItemID, out []float32) MinMax[float32] {
	bs32, ok := n.inner.(BulkScorer32)
	if !ok {
		narrowed(out, func(out []float64) MinMax[float64] {
			r := n.rangeOf(u)
			BulkScores(n.inner, u, items, out)
			return map64(r, out)
		})
		return Identity[float32]()
	}
	r := n.rangeOf(u)
	bs32.ScoreUser32(u, items, out)
	return map32(r, out)
}

// narrowed fills out with the float64 scores score writes into a pooled
// buffer of its length, taken through the map it returns and truncated.
func narrowed(out []float32, score func(out []float64) MinMax[float64]) {
	bp := scoreBufPool.get(len(out))
	m := score(*bp)
	for k, v := range *bp {
		out[k] = float32(m.At(v))
	}
	scoreBufPool.put(bp)
}

// AccuracyScores implements core.BulkAccuracy: it fills out — one element per
// item of this normaliser's catalog, in identifier order — with the inner
// model's float64 bulk scores and returns the map that normalises them, which
// takes each to its AccuracyScore. It is a turn's one bulk call: a
// range the table does not hold yet (a user's first touch, a successor
// generation's missing suffix, an older generation's rescan) is folded from
// out itself, so the catalog is scored once either way. A model whose only
// bulk body is the float32 one scores through its catalog body when it has
// one, widened, as BulkScores widens its list body: the same bits.
func (n *NormalizedScorer) AccuracyScores(u types.UserID, out []float64) MinMax[float64] {
	return map64(catalogRange(n, u, out, func(out []float64) {
		_, f64 := n.inner.(BulkScorer)
		if bs32, ok := n.inner.(BulkScorer32); ok && !f64 {
			widened(out, func(out []float32) { scoreCatalog32(bs32, u, out) })
			return
		}
		BulkScores(n.inner, u, types.CatalogItems(len(out)), out)
	}), out)
}

// AccuracyScores32 implements core.BulkAccuracy32: AccuracyScores through the
// inner model's float32 bulk path — its catalog body when it has one
// (CatalogScorer32) — with the map of RawScores32. Around a model with no
// float32 path, out receives AccuracyScores' normalised scores, truncated,
// and the map is the identity.
func (n *NormalizedScorer) AccuracyScores32(u types.UserID, out []float32) MinMax[float32] {
	m, _, _ := n.scores32(u, out, nil)
	return m
}

// BoundScratch holds the buffers AccuracyBounds32 certifies a user's range
// with: the lower bound row, a list of items and their scores, and the items
// it scored. The zero value is ready, a scratch serves one call at a time,
// and every buffer grows to the catalog it serves.
type BoundScratch struct {
	lower       []float32
	items, done []types.ItemID
	scores      []float32
}

// AccuracyBounds32 implements core.BoundedAccuracy32: AccuracyScores32, but
// around a model with a bound row (CatalogBounder32) out receives that row
// instead, the inner model comes back beside the map, for its list body to
// score the items the caller keeps exactly as the catalog body would, and so
// does the ascending list of the items whose out entry is their score
// itself. When the table holds the user's range over this catalog, out is
// the bound row and the list is empty. When it does not — a first touch, or
// a prefix entry of a smaller catalog — the range over the items the entry
// does not cover is certified from the row and the lower bound row
// (certify): the items that can attain an extreme are scored, their scores
// written into out and listed, and the range they fold to stored. A model
// without a bound row, a bound row it refuses or that is NaN where the range
// is certified, and a range whose float32 map is not strictly increasing — a
// span of 0, or one whose reciprocal is not a finite positive number; only a
// strictly increasing map keeps a bound a bound — get the scores and no
// scorer. The items a certification scored before it was refused, or whose
// map is of no use, are then scored again with the catalog: time lost, no
// score changed, since only factor models, whose scores are fixed, have
// bound rows.
func (n *NormalizedScorer) AccuracyBounds32(u types.UserID, out []float32, sc *BoundScratch) (MinMax[float32], BulkScorer32, []types.ItemID) {
	return n.scores32(u, out, sc)
}

// scores32 is AccuracyScores32 and, with a scratch, AccuracyBounds32: the
// table's entry is read first, so a turn looks the user up once.
func (n *NormalizedScorer) scores32(u types.UserID, out []float32, sc *BoundScratch) (MinMax[float32], BulkScorer32, []types.ItemID) {
	bs32, ok := n.inner.(BulkScorer32)
	if !ok {
		narrowed(out, func(out []float64) MinMax[float64] { return n.AccuracyScores(u, out) })
		return Identity[float32](), nil, nil
	}
	if len(out) != n.numItems {
		panic(fmt.Sprintf("recommender: NormalizedScorer buffer length %d != catalog size %d", len(out), n.numItems))
	}
	r, held := n.entry(u)
	if b, ok := bs32.(CatalogBounder32); sc != nil && ok {
		if !held {
			if c, done, ok := certify(b, u, r, out, sc); ok {
				r, held = store(n, u, c), true
				if m := map32(r, nil); r.span() > 0 && m.increasing() {
					return m, b, done
				}
			}
		} else if m := map32(r, nil); r.span() > 0 && m.increasing() && b.BoundCatalog32(u, out, nil) {
			return m, b, nil
		}
	}
	scoreCatalog32(bs32, u, out)
	if !held {
		r = extend(n, u, r, out[r.upTo:])
	}
	return map32(r, out), nil, nil
}

// certify fills upper with b's bound row for u, a lower bound row beside it
// in sc, and returns r folded over the scores of items [r.upTo, len(upper)),
// bit for bit what fold over all of them gives, scoring only the items that
// can attain an extreme (DESIGN.md §12). It runs over the items in blocks
// (FirstBlock, doubling to LastBlock) and holds the largest and smallest scores found so
// far — r's ends, when r covers a prefix — as the ends of a band: the band
// scan keeps a block's items whose upper bound reaches the largest or whose
// lower bound reaches the smallest, the list body scores them, and their
// scores move the ends out. An item it passes over has a
// score below the largest found before it, or above the smallest, so it
// attains no extreme; the first item that attains one is scored, and the fold
// over the scored items in item order keeps its bits, ±0 included. Each item
// is scored once, its score written into upper and listed, in ascending
// order, in the list it returns, which lives in sc. It refuses — the caller
// scores the catalog — when there is nothing to certify, for an entry whose
// ends are NaN, when b has no bound rows for u, and when a bound it reads is
// NaN (the band scan keeps every NaN bound).
func certify(b CatalogBounder32, u types.UserID, r scoreRange, upper []float32, sc *BoundScratch) (scoreRange, []types.ItemID, bool) {
	from, numItems := r.upTo, len(upper)
	lower := Sized(&sc.lower, numItems)
	if from >= numItems || r.min != r.min || r.max != r.max || !b.BoundCatalog32(u, upper, lower) {
		return r, nil, false
	}
	hiEnd, loEnd := float32(math.Inf(-1)), float32(math.Inf(1))
	if from > 0 {
		hiEnd, loEnd = float32(r.max), float32(r.min)
	}
	items, scores := Sized(&sc.items, LastBlock), Sized(&sc.scores, LastBlock)
	done := Sized(&sc.done, numItems-from)[:0]
	for lo, size := from, FirstBlock; lo < numItems; lo, size = lo+size, min(2*size, LastBlock) {
		hi := min(lo+size, numItems)
		kept := items[:linalg.OutsideBand(upper[lo:hi], lower[lo:hi], hiEnd, loEnd, types.ItemID(lo), items)]
		if len(kept) == 0 {
			continue
		}
		for _, i := range kept {
			if upper[i] != upper[i] || lower[i] != lower[i] {
				return r, nil, false
			}
		}
		b.ScoreUser32(u, kept, scores[:len(kept)])
		for k, i := range kept {
			s := scores[k]
			hiEnd, loEnd = max(hiEnd, s), min(loEnd, s)
			upper[i] = s
		}
		done = append(done, kept...)
	}
	vals := Sized(&sc.scores, len(done))
	for k, i := range done {
		vals[k] = upper[i]
	}
	c := fold(r, vals)
	c.upTo = numItems
	return c, done, true
}

// FirstBlock and LastBlock are the block schedule a bound row is read in, by
// a range certification (certify) and by core's bounded walk: FirstBlock
// items first, each block then twice the last, up to LastBlock. A short first
// block soon moves what the row is held against (the band's ends, the walk's
// bar); a long block amortises each scan's call.
const FirstBlock, LastBlock = 32, 512

// Sized returns *buf resliced to n elements, reallocating when it is too
// small; the contents are unspecified. It sizes this package's scratch
// buffers and core's.
func Sized[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// increasing reports whether the map's affine part is strictly increasing
// and never NaN on a number: a finite min and a finite positive scale.
func (m MinMax[T]) increasing() bool {
	inf := T(math.Inf(1))
	return !m.divide && m.min > -inf && m.min < inf && m.scale > 0 && m.scale < inf
}

// scoreCatalog32 fills out with s's float32 scores of the items
// [0, len(out)): its catalog body when it has one, its list body otherwise.
func scoreCatalog32(s BulkScorer32, u types.UserID, out []float32) {
	if cs, ok := s.(CatalogScorer32); ok {
		cs.ScoreCatalog32(u, out)
		return
	}
	s.ScoreUser32(u, types.CatalogItems(len(out)), out)
}

// catalogRange fills out with the inner scores of this normaliser's whole
// catalog — score is the inner model's bulk path at the width of T — and
// returns u's range over it: the table's entry, or one extended over out.
func catalogRange[T float32 | float64](n *NormalizedScorer, u types.UserID, out []T, score func(out []T)) scoreRange {
	if len(out) != n.numItems {
		panic(fmt.Sprintf("recommender: NormalizedScorer buffer length %d != catalog size %d", len(out), n.numItems))
	}
	score(out)
	r, held := n.entry(u)
	if held {
		return r
	}
	return extend(n, u, r, out[r.upTo:])
}

// rangeOf returns u's range over this normaliser's catalog for a caller that
// scores only some items: the table's entry, or one extended over the items
// it does not cover, scored for the purpose through the inner model's float64
// bulk path.
func (n *NormalizedScorer) rangeOf(u types.UserID) scoreRange {
	r, held := n.entry(u)
	if held {
		return r
	}
	missing := types.CatalogItems(n.numItems)[r.upTo:]
	bp := scoreBufPool.get(len(missing))
	defer scoreBufPool.put(bp)
	BulkScores(n.inner, u, missing, *bp)
	return extend(n, u, r, *bp)
}

// entry returns u's range-table entry and whether it covers exactly this
// normaliser's catalog. One covering a prefix (an earlier generation computed
// it) comes back to be extended over the missing items. One covering more (a
// later generation got there first) is of no use to this reader: it comes
// back empty, the reader folds its own catalog, and extend leaves the entry
// alone.
func (n *NormalizedScorer) entry(u types.UserID) (scoreRange, bool) {
	t := n.ranges
	t.mu.Lock()
	r, ok := t.byUser[u]
	t.mu.Unlock()
	switch {
	case ok && r.upTo == n.numItems:
		return r, true
	case ok && r.upTo < n.numItems:
		return r, false
	}
	return scoreRange{}, false
}

// extend folds r over scores, the inner scores of items [r.upTo, numItems),
// and stores the result.
func extend[T float32 | float64](n *NormalizedScorer, u types.UserID, r scoreRange, scores []T) scoreRange {
	return store(n, u, fold(r, scores))
}

// store keeps r, u's range over the items [0, r.upTo), unless the table holds
// an entry at least as long, and returns it.
func store(n *NormalizedScorer, u types.UserID, r scoreRange) scoreRange {
	t := n.ranges
	t.mu.Lock()
	if cur, ok := t.byUser[u]; !ok || cur.upTo < r.upTo {
		t.byUser[u] = r
	}
	t.mu.Unlock()
	return r
}

// RangeHeldSince reports whether u's normalization range over this
// normaliser's catalog is provably its range over the first from items: every
// inner score of items [from, numItems) lies strictly inside the catalog's
// (min, max). A tail score equal to an extreme answers false — the prefix may
// or may not have reached that extreme on its own. The tail is scored through
// the float64 bulk contract (a float32 body's scores widened, which is exact:
// both of the normaliser's bulk methods normalise by this one range), and the
// range read — and extended, by the catalog's first reader — as a bulk call would.
func (n *NormalizedScorer) RangeHeldSince(u types.UserID, from int) bool {
	tail := types.CatalogItems(n.numItems)[from:]
	bp := scoreBufPool.get(len(tail))
	defer scoreBufPool.put(bp)
	r := n.rangeOf(u)
	BulkScores(n.inner, u, tail, *bp)
	for _, s := range *bp {
		if !(s > r.min && s < r.max) {
			return false
		}
	}
	return true
}

// Name implements core.AccuracyRecommender.
func (n *NormalizedScorer) Name() string { return n.inner.Name() }

// --- Batch recommendation helpers --------------------------------------------

// RecommendAll produces the top-N collection for every user in the train set
// using model under the all-unrated-items protocol: each user's candidates are
// the catalog minus their train items.
func RecommendAll(model TopN, train *dataset.Dataset, n int) types.Recommendations {
	e := TopNEngine{Model: model, Train: train, N: n}
	recs, _ := e.RecommendAll(context.Background()) // fails only when its context ends
	return recs
}

// TopNEngine adapts any TopN model into the Engine shape shared by the facade
// and the serving layer: per-user on-demand recommendation plus batch
// generation, both over the user's unrated items (dataset.AppendCandidates).
// The zero value is not usable; Model, Train and N are required.
type TopNEngine struct {
	// Model produces the ranked lists.
	Model TopN
	// Train supplies the user universe and each user's candidates.
	Train *dataset.Dataset
	// N is the default list size when a request passes n ≤ 0.
	N int
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
		return nil, fmt.Errorf("recommender: user %d out of range [0,%d): %w", u, e.Train.NumUsers(), types.ErrUnknownUser)
	}
	if n <= 0 {
		n = e.N
	}
	bp := candBufPool.get(0)
	defer candBufPool.put(bp)
	*bp = e.Train.AppendCandidates(u, *bp)
	return e.Model.Recommend(u, n, *bp), nil
}

// RecommendAll generates the full collection, one user after another over one
// reused candidate buffer. Cancellation is checked between users.
func (e *TopNEngine) RecommendAll(ctx context.Context) (types.Recommendations, error) {
	recs := make(types.Recommendations, e.Train.NumUsers())
	var cand []types.ItemID
	for u := 0; u < e.Train.NumUsers(); u++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		uid := types.UserID(u)
		cand = e.Train.AppendCandidates(uid, cand[:0])
		recs[uid] = e.Model.Recommend(uid, e.N, cand)
	}
	return recs, nil
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
