// Package core implements GANC, the paper's Generic re-ranking framework for
// trading off Accuracy, Novelty and Coverage, together with its OSLG
// (Ordered Sampling-based Locally Greedy) optimization algorithm.
//
// GANC combines three pluggable components (Section III):
//
//   - an accuracy recommender providing a per-item accuracy score a(i) ∈ [0,1],
//   - a coverage recommender providing a per-item coverage score c(i) ∈ [0,1],
//   - a per-user long-tail novelty preference θ_u ∈ [0,1].
//
// The user value function is v_u(P_u) = (1−θ_u)·a(P_u) + θ_u·c(P_u), and the
// framework selects a top-N collection maximizing Σ_u v_u(P_u). With the
// static coverage recommenders (Rand, Stat) the objective decomposes per user
// and a plain greedy sweep is exact; with the Dyn coverage recommender the
// objective is submodular across users and OSLG (Algorithm 1) is used.
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"ganc/internal/dataset"
	"ganc/internal/kde"
	"ganc/internal/longtail"
	"ganc/internal/recommender"
	"ganc/internal/types"
)

// AccuracyRecommender provides the accuracy score a(i) ∈ [0,1] for a user.
// Implementations wrap the base models (Pop, RSVD, PSVD, ...).
type AccuracyRecommender interface {
	// AccuracyScore returns a(i) for user u; must lie in [0,1].
	AccuracyScore(u types.UserID, i types.ItemID) float64
	// Name identifies the accuracy recommender in experiment output.
	Name() string
}

// CoverageRecommender provides the coverage score c(i) ∈ [0,1]. The Dyn
// recommender is stateful: its score depends on the recommendations made so
// far, which it learns about through Observe.
//
// Contract: an item's score changes only through Observe calls on that same
// item. The optimizer depends on it — a user's sweep scores every candidate
// once, selects, and only then Observes its picks (see sweepUser); a
// recommender whose scores move any other way would be read stale. (Rand
// redraws on every call; being asked once per candidate is what makes its
// scores independent per (user, item) pair.)
type CoverageRecommender interface {
	// CoverageScore returns c(i) for user u; must lie in [0,1].
	CoverageScore(u types.UserID, i types.ItemID) float64
	// Observe informs the recommender that item i was just recommended (to
	// any user). Stateless recommenders ignore it.
	Observe(i types.ItemID)
	// Name identifies the coverage recommender in experiment output.
	Name() string
}

// --- Accuracy recommender adapters -------------------------------------------

// BulkAccuracy is the batch companion of AccuracyRecommender: one call fills
// a preallocated buffer with user u's scores for items and returns the map
// that takes each to a(i) — the identity, or the min–max map of a normalised
// model's raw scores, which a turn applies in the walk it makes anyway. Mapped,
// the values are exactly what AccuracyScore returns (accuracy scores are
// stateless by contract, so buffering them for a sweep is sound).
type BulkAccuracy interface {
	// AccuracyScores fills out[k] with the score the returned map takes to
	// a(items[k]) for user u; len(out) == len(items).
	AccuracyScores(u types.UserID, items []types.ItemID, out []float64) recommender.MinMax[float64]
}

// BulkAccuracy32 is the float32 companion of BulkAccuracy. Implementations
// must agree with AccuracyScore to the documented tolerance (DESIGN.md §12).
// An accuracy recommender that implements it is swept in float32 — scores,
// gains and selection — everywhere but OSLG's sequential phase; one that does
// not is swept in float64.
type BulkAccuracy32 interface {
	// AccuracyScores32 is AccuracyScores into a float32 arena.
	AccuracyScores32(u types.UserID, items []types.ItemID, out []float32) recommender.MinMax[float32]
}

// ScorerAccuracy adapts any recommender.Scorer whose scores are already in
// [0,1] (e.g. a NormalizedScorer around RSVD or PSVD).
type ScorerAccuracy struct {
	Scorer recommender.Scorer
}

// AccuracyScore implements AccuracyRecommender.
func (s *ScorerAccuracy) AccuracyScore(u types.UserID, i types.ItemID) float64 {
	return recommender.Identity[float64]().At(s.Scorer.Score(u, i))
}

// AccuracyScores implements BulkAccuracy: a normaliser's raw scores and the
// user's map; any other scorer's bulk scores and the identity, whose clamp to
// [0,1] is AccuracyScore's.
func (s *ScorerAccuracy) AccuracyScores(u types.UserID, items []types.ItemID, out []float64) recommender.MinMax[float64] {
	if norm, ok := s.Scorer.(*recommender.NormalizedScorer); ok {
		return norm.RawScores(u, items, out)
	}
	recommender.BulkScores(s.Scorer, u, items, out)
	return recommender.Identity[float64]()
}

// AccuracyScores32 implements BulkAccuracy32 likewise, through the scorer's
// float32 bulk path when it has one (recommender.BulkScores32).
func (s *ScorerAccuracy) AccuracyScores32(u types.UserID, items []types.ItemID, out []float32) recommender.MinMax[float32] {
	if norm, ok := s.Scorer.(*recommender.NormalizedScorer); ok {
		return norm.RawScores32(u, items, out)
	}
	recommender.BulkScores32(s.Scorer, u, items, out)
	return recommender.Identity[float32]()
}

// Name implements AccuracyRecommender.
func (s *ScorerAccuracy) Name() string { return s.Scorer.Name() }

// PopAccuracy is the paper's Pop accuracy recommender: a(i) = 1 when i is in
// the user's popularity top-N (excluding their train items), 0 otherwise.
// It is safe for concurrent use: lookups take a read lock only, so the hot
// serving path never serializes on the cache, and the cache is bounded by
// cacheCap with arbitrary-entry eviction (map iteration order) once full.
type PopAccuracy struct {
	pop   recommender.ScorerTopN
	train *dataset.Dataset
	topN  int
	mu    sync.RWMutex
	// cache maps a user to their top-N membership bitset: bit i set means
	// item i is in the user's popularity top-N. A bitset row costs |I|/8
	// bytes and answers a membership probe with one shift instead of a map
	// probe, which is what the candidate-sweep hot loop does per item.
	cache    map[types.UserID][]uint64
	cacheCap int
}

// NewPopAccuracy builds the indicator-style Pop accuracy recommender. topN is
// the N of the top-N sets being constructed.
func NewPopAccuracy(train *dataset.Dataset, topN int) *PopAccuracy {
	return NewPopAccuracyWith(recommender.NewPop(train), train, topN)
}

// topBits returns user u's popularity top-N membership bitset, computing and
// caching it on first use. The fast path is a read-locked map lookup.
func (p *PopAccuracy) topBits(u types.UserID) []uint64 {
	p.mu.RLock()
	bits, ok := p.cache[u]
	p.mu.RUnlock()
	if ok {
		return bits
	}
	top := p.pop.Recommend(u, p.topN, p.train.AppendCandidates(u, nil))
	bits = make([]uint64, (p.train.NumItems()+63)/64)
	for _, it := range top {
		bits[it>>6] |= 1 << (uint(it) & 63)
	}
	p.mu.Lock()
	if cached, ok := p.cache[u]; ok {
		// Another goroutine computed the set first; keep its copy so all
		// callers share one bitset.
		bits = cached
	} else {
		if len(p.cache) >= p.cacheCap {
			p.evictOneLocked()
		}
		p.cache[u] = bits
	}
	p.mu.Unlock()
	return bits
}

// inBits reports whether item i's bit is set (items beyond the bitset are
// absent by definition).
func inBits(bits []uint64, i types.ItemID) bool {
	w := int(i) >> 6
	return w < len(bits) && bits[w]>>(uint(i)&63)&1 == 1
}

// evictOneLocked removes one arbitrary cache entry (map iteration order is
// randomized, which approximates random replacement) so the cache stays
// bounded under serving load instead of refusing new users. Callers hold
// p.mu for writing.
func (p *PopAccuracy) evictOneLocked() {
	for victim := range p.cache {
		delete(p.cache, victim)
		break
	}
}

// AccuracyScore implements AccuracyRecommender: membership in the user's
// popularity top-N.
func (p *PopAccuracy) AccuracyScore(u types.UserID, i types.ItemID) float64 {
	if inBits(p.topBits(u), i) {
		return 1
	}
	return 0
}

// AccuracyScores implements BulkAccuracy: the membership bitset is resolved
// once for the whole candidate slice.
func (p *PopAccuracy) AccuracyScores(u types.UserID, items []types.ItemID, out []float64) recommender.MinMax[float64] {
	return fillIndicators(p.topBits(u), items, out)
}

// AccuracyScores32 implements BulkAccuracy32: indicator scores are exact in
// float32, so the float32 sweep reads the same memberships.
func (p *PopAccuracy) AccuracyScores32(u types.UserID, items []types.ItemID, out []float32) recommender.MinMax[float32] {
	return fillIndicators(p.topBits(u), items, out)
}

func fillIndicators[T float32 | float64](bits []uint64, items []types.ItemID, out []T) recommender.MinMax[T] {
	for k, i := range items {
		out[k] = 0
		if inBits(bits, i) {
			out[k] = 1
		}
	}
	return recommender.Identity[T]()
}

// SetCacheCap overrides the top-N membership cache bound (primarily for
// tests). Caps ≤ 0 are treated as 1.
func (p *PopAccuracy) SetCacheCap(cap int) {
	if cap <= 0 {
		cap = 1
	}
	p.mu.Lock()
	p.cacheCap = cap
	for len(p.cache) > cap {
		p.evictOneLocked()
	}
	p.mu.Unlock()
}

// CacheLen reports how many users' top-N sets are currently cached.
func (p *PopAccuracy) CacheLen() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.cache)
}

// Name implements AccuracyRecommender.
func (p *PopAccuracy) Name() string { return "Pop" }

// --- Coverage recommenders ----------------------------------------------------

// BulkCoverage is the batch companion of CoverageRecommender, as BulkAccuracy
// is of AccuracyRecommender: one call fills a preallocated buffer with the
// values CoverageScore would return. Stat and Rand implement it; Dyn scores
// are computed by the optimizer from a frequency vector.
type BulkCoverage interface {
	// CoverageScores fills out[k] with c(items[k]) for user u;
	// len(out) == len(items).
	CoverageScores(u types.UserID, items []types.ItemID, out []float64)
}

// invSqrtTab caches 1/√(f+1) for small frequencies f. Coverage scores are
// dominated by tiny integer frequencies (train popularities and
// recommendation counts), so the hot gain loops read a table entry instead
// of calling math.Sqrt. Entries are computed by the exact expression the
// off-table fallback uses, so tabled and computed scores are bit-identical.
var invSqrtTab = func() [1024]float64 {
	var t [1024]float64
	for f := range t {
		t[f] = 1 / math.Sqrt(float64(f)+1)
	}
	return t
}()

// invSqrtFreq returns 1/√(f+1), from the table when f is small.
func invSqrtFreq(f int) float64 {
	if f >= 0 && f < len(invSqrtTab) {
		return invSqrtTab[f]
	}
	return 1 / math.Sqrt(float64(f)+1)
}

// RandCoverage assigns each (user, item) pair an independent uniform score,
// the paper's Rand coverage recommender. It is safe for concurrent use.
type RandCoverage struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewRandCoverage builds a Rand coverage recommender.
func NewRandCoverage(seed int64) *RandCoverage {
	return &RandCoverage{rng: rand.New(rand.NewSource(seed))}
}

// CoverageScore implements CoverageRecommender.
func (r *RandCoverage) CoverageScore(types.UserID, types.ItemID) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rng.Float64()
}

// CoverageScores implements BulkCoverage: the mutex is taken once per sweep
// instead of once per item.
func (r *RandCoverage) CoverageScores(_ types.UserID, items []types.ItemID, out []float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k := range items {
		out[k] = r.rng.Float64()
	}
}

// Observe implements CoverageRecommender (no state).
func (r *RandCoverage) Observe(types.ItemID) {}

// Name implements CoverageRecommender.
func (r *RandCoverage) Name() string { return "Rand" }

// StatCoverage scores items by a monotone decreasing function of their train
// popularity: c(i) = 1/√(f_i^R + 1). The gain of recommending an item is
// constant regardless of how often it has already been recommended.
type StatCoverage struct {
	scores []float64
}

// NewStatCoverage precomputes the static coverage scores from the train set.
func NewStatCoverage(train *dataset.Dataset) *StatCoverage {
	scores := make([]float64, train.NumItems())
	for i := range scores {
		scores[i] = 1 / math.Sqrt(float64(train.ItemPopularity(types.ItemID(i)))+1)
	}
	return &StatCoverage{scores: scores}
}

// CoverageScore implements CoverageRecommender.
func (s *StatCoverage) CoverageScore(_ types.UserID, i types.ItemID) float64 {
	if int(i) >= len(s.scores) {
		return 0
	}
	return s.scores[i]
}

// CoverageScores implements BulkCoverage: a vectorized lookup of the
// precomputed static scores.
func (s *StatCoverage) CoverageScores(_ types.UserID, items []types.ItemID, out []float64) {
	for k, i := range items {
		if int(i) >= len(s.scores) {
			out[k] = 0
			continue
		}
		out[k] = s.scores[i]
	}
}

// Observe implements CoverageRecommender (no state).
func (s *StatCoverage) Observe(types.ItemID) {}

// Name implements CoverageRecommender.
func (s *StatCoverage) Name() string { return "Stat" }

// DynCoverage scores items by a monotone decreasing function of how often
// they have been recommended so far: c(i) = 1/√(f_i^A + 1), where f_i^A is
// the recommendation frequency in the partial top-N collection A. It has the
// diminishing-returns property that makes GANC's objective submodular.
type DynCoverage struct {
	freq []int

	// gen counts mutations of freq; FrozenFrequencies compares it against
	// snapGen to decide whether the cached read-only snapshot is still
	// current. Mutators (Observe, SetFrequencies — the batch path) must not
	// run concurrently with readers, per the engine contract; snapMu only
	// serializes concurrent online snapshot requests against each other.
	gen     uint64
	snapMu  sync.Mutex
	snap    []int
	snapGen uint64
	hasSnap bool
}

// NewDynCoverage builds a Dyn coverage recommender over a catalog of numItems
// items with all frequencies zero.
func NewDynCoverage(numItems int) *DynCoverage {
	return &DynCoverage{freq: make([]int, numItems)}
}

// CoverageScore implements CoverageRecommender.
func (d *DynCoverage) CoverageScore(_ types.UserID, i types.ItemID) float64 {
	if int(i) >= len(d.freq) {
		return 0
	}
	return invSqrtFreq(d.freq[i])
}

// Observe implements CoverageRecommender: bumps the item's frequency.
func (d *DynCoverage) Observe(i types.ItemID) {
	if int(i) < len(d.freq) {
		d.freq[i]++
		d.gen++
	}
}

// Name implements CoverageRecommender.
func (d *DynCoverage) Name() string { return "Dyn" }

// Frequencies returns a copy of the current recommendation-frequency state
// (OSLG snapshots it per sampled user).
func (d *DynCoverage) Frequencies() []int {
	out := make([]int, len(d.freq))
	copy(out, d.freq)
	return out
}

// FrozenFrequencies returns a read-only snapshot of the current frequency
// state for the online serving path. The snapshot is cached and shared across
// requests until the next mutation: when the generation counter has moved, a
// fresh slice is built (never the old one re-filled, since earlier callers
// may still be reading it), otherwise the call is a mutex-protected pointer
// read. Callers must not modify the returned slice.
func (d *DynCoverage) FrozenFrequencies() []int {
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	if !d.hasSnap || d.snapGen != d.gen {
		d.snap = append([]int(nil), d.freq...)
		d.snapGen = d.gen
		d.hasSnap = true
	}
	return d.snap
}

// SetFrequencies replaces the frequency state (OSLG restores snapshots for
// out-of-sample users).
func (d *DynCoverage) SetFrequencies(f []int) {
	if len(f) != len(d.freq) {
		panic(fmt.Sprintf("core: frequency vector length %d != catalog size %d", len(f), len(d.freq)))
	}
	copy(d.freq, f)
	d.gen++
}

// NumItems returns the catalog size the recommender was built for.
func (d *DynCoverage) NumItems() int { return len(d.freq) }

// --- GANC ---------------------------------------------------------------------

// Config configures a GANC instance.
type Config struct {
	// N is the size of each top-N set.
	N int
	// SampleSize S is the number of users processed sequentially by OSLG.
	// Values ≤ 0 or ≥ |U| disable sampling and run the fully sequential
	// locally greedy algorithm. Only used with the Dyn coverage recommender.
	SampleSize int
	// Seed drives the KDE sampling and any randomized component.
	Seed int64
	// Workers is the number of goroutines used for the out-of-sample phase of
	// OSLG (Algorithm 1, lines 11–15, which the paper notes can run in
	// parallel) and for the independent per-user sweeps of Stat coverage (Rand
	// always sweeps on one worker, see forEachShard), so the output is the same
	// for any value. Values ≤ 1 run sequentially; values above
	// runtime.GOMAXPROCS(0) — the Ps the process may run on, which a CPU
	// quota or `go test -cpu` sets below the machine's CPU count — are
	// clamped to it: more goroutines than Ps only time-slice.
	Workers int
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("core: N must be positive, got %d", c.N)
	}
	return nil
}

// GANC is a configured instance of the framework. Construct with New. An
// instance is cheap to build and to drop: the serving layer assembles one per
// ingestion batch, so it owns nothing that outlives it — sweep buffers come
// from a process-wide pool (see sweepScratch) and hold no reference to the
// instance once returned.
type GANC struct {
	cfg      Config
	arec     AccuracyRecommender
	crec     CoverageRecommender
	prefs    *longtail.Preferences
	train    *dataset.Dataset
	numItems int
}

// New assembles a GANC instance from its three components, following the
// paper's template GANC(ARec, θ, CRec).
func New(train *dataset.Dataset, arec AccuracyRecommender, prefs *longtail.Preferences, crec CoverageRecommender, cfg Config) (*GANC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if train == nil || arec == nil || prefs == nil || crec == nil {
		return nil, fmt.Errorf("core: train, accuracy recommender, preferences and coverage recommender are all required")
	}
	if prefs.Len() != train.NumUsers() {
		return nil, fmt.Errorf("core: preference vector covers %d users but train set has %d", prefs.Len(), train.NumUsers())
	}
	if dyn, ok := crec.(*DynCoverage); ok && dyn.NumItems() != train.NumItems() {
		return nil, fmt.Errorf("core: Dyn frequency vector covers %d items but train set has %d", dyn.NumItems(), train.NumItems())
	}
	return &GANC{
		cfg:      cfg,
		arec:     arec,
		crec:     crec,
		prefs:    prefs,
		train:    train,
		numItems: train.NumItems(),
	}, nil
}

// Name returns the paper-style template string GANC(ARec, θ, CRec).
func (g *GANC) Name() string {
	return fmt.Sprintf("GANC(%s, θ^%s, %s)", g.arec.Name(), shortModel(g.prefs.Model), g.crec.Name())
}

func shortModel(m longtail.Model) string {
	switch m {
	case longtail.ModelActivity:
		return "A"
	case longtail.ModelNormalizedLongTail:
		return "N"
	case longtail.ModelTFIDF:
		return "T"
	case longtail.ModelGeneralized:
		return "G"
	case longtail.ModelRandom:
		return "R"
	case longtail.ModelConstant:
		return "C"
	default:
		return string(m)
	}
}

// marginalGain is the gain of appending item i to user u's set:
// (1−θ_u)·a(i) + θ_u·c(i). Both component scores are in [0,1] so the gain is
// too.
func (g *GANC) marginalGain(u types.UserID, i types.ItemID) float64 {
	theta := g.prefs.Get(u)
	return (1-theta)*g.arec.AccuracyScore(u, i) + theta*g.crec.CoverageScore(u, i)
}

// --- The per-user sweep -------------------------------------------------------

// sweepScratch holds one worker's reusable buffers: the candidate slice and
// the score buffers aligned with it (a coverage recommender's scores, float64
// accuracy scores and float32 ones). One scratch serves one sweep at a time. Every
// buffer starts empty and grows to what the sweeps using it need, so a scratch
// fits any instance and any catalog size, and none of them points into the
// instance it last served.
type sweepScratch struct {
	cand  []types.ItemID
	covs  []float64
	raw64 []float64
	raw32 []float32
}

// scratchPool recycles sweep scratches across requests, batch workers and
// instances. It is process-wide on purpose: a sync.Pool is reachable from the
// runtime until two collections after its last use, so a pool inside GANC
// would keep every retired serving generation — and the train set it holds —
// alive that long, and each new generation would start with cold buffers.
var scratchPool = sync.Pool{New: func() interface{} { return new(sweepScratch) }}

func getScratch() *sweepScratch { return scratchPool.Get().(*sweepScratch) }

// sized returns *buf resliced to n elements, reallocating when it is too
// small; the contents are unspecified.
func sized[T float32 | float64](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// sweepUser builds one user's top-n set in three stages: enumerate the
// candidates (a linear merge against the user's sorted train adjacency), score
// them (scoreTurn: one bulk accuracy call) and walk them once (turn.top): map,
// combine, and keep the n largest gains, ties to the smaller ItemID.
//
// One scoring pass is the whole of a user's turn in Algorithm 1 (lines 5–9),
// for every coverage recommender. The turn picks n distinct items, and the
// only thing a pick moves is the coverage score of the item picked (the
// CoverageRecommender contract; for Dyn, its frequency), which has left the
// pool. Every remaining candidate's gain is what it was when the turn began,
// so the locally greedy sequence of picks is the candidates in decreasing
// order of that gain.
//
// freq, when non-nil, is the Dyn frequency vector the coverage scores are
// computed from: a frozen snapshot (the online path, OSLG's out-of-sample
// phase) or the live vector (OSLG's sequential phase — with observe set, the
// picks are reported once the walk is done). With freq nil the coverage
// recommender is asked. exact keeps the turn in float64 whatever the accuracy
// recommender offers.
func (g *GANC) sweepUser(ctx context.Context, u types.UserID, n int, freq []int, exact, observe bool, sc *sweepScratch) (types.TopNSet, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sc.cand = g.train.AppendCandidates(u, sc.cand[:0])
	t := g.scoreTurn(u, sc.cand, freq, exact, sc)
	// Scoring is most of a sweep's cost on a large catalog: a caller that
	// gave up during it is answered before the walk.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	set := t.top(n)
	if observe {
		for _, i := range set {
			g.crec.Observe(i)
		}
	}
	return set, nil
}

// turn is a user's candidates after the scoring stage: the bulk call's scores
// aligned with cand (raw32 when the turn runs in float32, raw64 when in
// float64), the map that takes them to a(i), and where c(i) is read.
type turn struct {
	cand  []types.ItemID
	raw32 []float32
	map32 recommender.MinMax[float32]
	raw64 []float64
	map64 recommender.MinMax[float64]
	theta float64
	freq  []int
	covs  []float64
}

// scoreTurn is the scoring stage of a turn, and the one place its arithmetic
// is chosen: one bulk accuracy call into a scratch buffer aligned with cand.
// An accuracy recommender that implements BulkAccuracy32 is scored and walked
// in float32, to the documented tolerance (DESIGN.md §12), unless exact is
// set; any other, in float64. With freq nil the coverage recommender is asked:
// one bulk call, or one CoverageScore per item — sound once per sweep under
// its contract.
func (g *GANC) scoreTurn(u types.UserID, cand []types.ItemID, freq []int, exact bool, sc *sweepScratch) turn {
	t := turn{cand: cand, theta: g.prefs.Get(u), freq: freq}
	if freq == nil {
		t.covs = sized(&sc.covs, len(cand))
		if bc, ok := g.crec.(BulkCoverage); ok {
			bc.CoverageScores(u, cand, t.covs)
		} else {
			for k, i := range cand {
				t.covs[k] = g.crec.CoverageScore(u, i)
			}
		}
	}
	if ba, ok := g.arec.(BulkAccuracy32); ok && !exact {
		t.raw32 = sized(&sc.raw32, len(cand))
		t.map32 = ba.AccuracyScores32(u, cand, t.raw32)
		return t
	}
	t.raw64, t.map64 = sized(&sc.raw64, len(cand)), recommender.Identity[float64]()
	if ba, ok := g.arec.(BulkAccuracy); ok {
		t.map64 = ba.AccuracyScores(u, cand, t.raw64)
		return t
	}
	for k, i := range cand {
		t.raw64[k] = g.arec.AccuracyScore(u, i)
	}
	return t
}

// top walks the turn once: its n candidates of largest gain, best first.
func (t *turn) top(n int) types.TopNSet {
	if t.raw32 != nil {
		return topGains(t.cand, t.raw32, t.map32, float32(t.theta), t.freq, t.covs, n)
	}
	return topGains(t.cand, t.raw64, t.map64, t.theta, t.freq, t.covs, n)
}

// gainOf is the one place a gain is computed: (1−θ)·a(i) + θ·c(i) in the
// arithmetic of T, a(i) the candidate's raw score through the user's map.
func gainOf[T float32 | float64](raw T, m recommender.MinMax[T], theta T, c float64) T {
	return (1-theta)*m.At(raw) + theta*T(c)
}

// coverageOf is c(i) of the k-th candidate i: its entry in covs, or under freq
// its Dyn score (an item outside the vector has never been recommended).
func coverageOf(k int, i types.ItemID, freq []int, covs []float64) float64 {
	switch {
	case freq == nil:
		return covs[k]
	case int(i) < len(freq):
		return invSqrtFreq(freq[i])
	}
	return invSqrtFreq(0)
}

// topGains is the walk of a turn: each gain is held against the bar of the n
// best so far, and only one that reaches it touches the heap, whose rule decides.
func topGains[T float32 | float64](cand []types.ItemID, raw []T, m recommender.MinMax[T], theta T, freq []int, covs []float64, n int) types.TopNSet {
	if n <= 0 {
		return nil
	}
	h := recommender.NewTopHeap[T](min(n, len(cand)))
	bar := T(math.Inf(-1))
	for k, i := range cand {
		if g := gainOf(raw[k], m, theta, coverageOf(k, i, freq, covs)); !(g < bar) {
			bar = h.Offer(i, g)
		}
	}
	return h.Ranked()
}

// firstOutranks reports whether cand[0] ranks above every other candidate
// under the selection's rule, on the gains the walk computes.
func firstOutranks[T float32 | float64](cand []types.ItemID, raw []T, m recommender.MinMax[T], theta T, freq []int, covs []float64) bool {
	first := gainOf(raw[0], m, theta, coverageOf(0, cand[0], freq, covs))
	for k := 1; k < len(cand); k++ {
		g := gainOf(raw[k], m, theta, coverageOf(k, cand[k], freq, covs))
		if !recommender.RanksBelow(cand[k], g, cand[0], first) {
			return false
		}
	}
	return true
}

// SurvivesGrowth reports whether list — u's complete top-len(list) list when
// the catalog was its first from items, no item of which has had a score move
// since — is provably still the head of u's ranking over the whole catalog.
// Two things must hold. The accuracy scores of the old items are unmoved: the
// accuracy recommender is a min–max normaliser whose range for u the new
// items did not widen (recommender.RangeHeldSince). And no new item
// out-ranks the list's last: the items [from, numItems) are scored beside it
// through the scoring stage of a sweep (scoreTurn) and each must rank below
// it under the selection's own rule, on the gain the walk computes (gainOf).
// New items u has rated since are scored too — they have left the pool, so at
// worst a list that would have survived is recomputed. Any other accuracy
// recommender, and a coverage recommender but Dyn or Stat, answers false.
func (g *GANC) SurvivesGrowth(u types.UserID, list types.TopNSet, from int) bool {
	sa, ok := g.arec.(*ScorerAccuracy)
	if !ok || len(list) == 0 {
		return false
	}
	norm, ok := sa.Scorer.(*recommender.NormalizedScorer)
	if !ok {
		return false
	}
	var freq []int
	switch crec := g.crec.(type) {
	case *DynCoverage:
		freq = crec.FrozenFrequencies()
	case *StatCoverage:
	default:
		return false
	}
	if !norm.RangeHeldSince(u, from) {
		return false
	}

	sc := getScratch()
	defer scratchPool.Put(sc)
	cand := append(sc.cand[:0], list[len(list)-1])
	for i := from; i < g.numItems; i++ {
		cand = append(cand, types.ItemID(i))
	}
	sc.cand = cand
	t := g.scoreTurn(u, cand, freq, false, sc) // in float32: a ScorerAccuracy is a BulkAccuracy32
	return firstOutranks(cand, t.raw32, t.map32, float32(t.theta), freq, t.covs)
}

// forEachShard splits [0, count) into contiguous ranges across the configured
// workers (clamped to GOMAXPROCS) and runs fn(lo, hi) per range, inline when
// parallelism is disabled. Rand's scores are successive draws from one rng, so
// they depend on the order users are swept in: it gets one range, swept in
// user order, whatever Config.Workers says.
func (g *GANC) forEachShard(count int, fn func(lo, hi int)) {
	workers := g.cfg.Workers
	if _, orderDependent := g.crec.(*RandCoverage); orderDependent {
		workers = 1
	}
	if procs := runtime.GOMAXPROCS(0); workers > procs {
		workers = procs
	}
	if workers <= 1 || count <= 1 {
		fn(0, count)
		return
	}
	if workers > count {
		workers = count
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(count*w/workers, count*(w+1)/workers)
	}
	wg.Wait()
}

// Recommend produces the top-N collection for every user.
//
// With a stateless coverage recommender (Rand, Stat) the per-user problems
// are independent and are solved by independent greedy sweeps. With Dyn, the
// OSLG algorithm is used: a KDE-sampled subset of users (Config.SampleSize)
// is processed sequentially in increasing θ, the Dyn frequency state is
// snapshotted after each sampled user, and the remaining users reuse the
// snapshot of their nearest sampled θ.
func (g *GANC) Recommend() types.Recommendations {
	if dyn, ok := g.crec.(*DynCoverage); ok {
		return g.recommendOSLG(dyn)
	}
	// Stateless coverage recommenders (Rand, Stat): every user's problem is
	// independent, so the sweep shards across Config.Workers (one, for Rand),
	// one contiguous user range and one scratch per worker. Per-user results
	// land in a slice indexed by user, so no mutex is needed.
	numUsers := g.train.NumUsers()
	sets := make([]types.TopNSet, numUsers)
	ctx := context.Background()
	g.forEachShard(numUsers, func(lo, hi int) {
		sc := getScratch()
		defer scratchPool.Put(sc)
		for u := lo; u < hi; u++ {
			sets[u], _ = g.sweepUser(ctx, types.UserID(u), g.cfg.N, nil, false, true, sc)
		}
	})
	recs := make(types.Recommendations, numUsers)
	for u, set := range sets {
		recs[types.UserID(u)] = set
	}
	return recs
}

// TopN returns the configured top-N size.
func (g *GANC) TopN() int { return g.cfg.N }

// RecommendUser computes a single user's top-N list on demand, without
// touching any other user. With the Dyn coverage recommender the sweep runs
// against the shared frozen snapshot of the frequency state (rebuilt only
// when the state has actually mutated, see DynCoverage.FrozenFrequencies),
// so concurrent RecommendUser calls are safe and never mutate shared state;
// the result is deterministic for a given state, which makes it cacheable.
// n ≤ 0 selects the configured Config.N.
//
// Batch Recommend must not run concurrently with RecommendUser on the same
// instance (it mutates the Dyn state, which the online path reads unlocked).
func (g *GANC) RecommendUser(ctx context.Context, u types.UserID, n int) (types.TopNSet, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if int(u) < 0 || int(u) >= g.train.NumUsers() {
		return nil, fmt.Errorf("core: user %d out of range [0,%d)", u, g.train.NumUsers())
	}
	if n <= 0 {
		n = g.cfg.N
	}
	var freq []int
	if dyn, ok := g.crec.(*DynCoverage); ok {
		freq = dyn.FrozenFrequencies()
	}
	sc := getScratch()
	defer scratchPool.Put(sc)
	return g.sweepUser(ctx, u, n, freq, false, false, sc)
}

// RecommendAll is the context-aware batch entry point used by the Engine
// interface. Cancellation is only checked before and after the sweep: once
// the batch optimizer starts it runs to completion, because OSLG's
// sequential phase cannot be abandoned midway without corrupting the Dyn
// frequency state shared with the remaining users.
func (g *GANC) RecommendAll(ctx context.Context) (types.Recommendations, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	recs := g.Recommend()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// userTheta pairs a user with their long-tail preference for sorting.
type userTheta struct {
	user  types.UserID
	theta float64
}

// recommendOSLG implements Algorithm 1.
func (g *GANC) recommendOSLG(dyn *DynCoverage) types.Recommendations {
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
	// Sort the sampled users in increasing long-tail preference (line 3): the
	// popularity-focused users pick first, while the Dyn frequencies are low,
	// and the explorers pick later, when popular items have been discounted.
	sort.Slice(sample, func(a, b int) bool {
		if sample[a].theta != sample[b].theta {
			return sample[a].theta < sample[b].theta
		}
		return sample[a].user < sample[b].user
	})

	// Sequential pass over the sample (lines 4–10): each user sweeps against
	// the live frequency vector, in float64 whatever the accuracy recommender
	// offers, and the state after them is snapshotted, keyed by their θ, when
	// an out-of-sample phase will read it.
	ctx := context.Background()
	var snapshots []freqSnapshot
	inSample := make(map[types.UserID]struct{}, len(sample))
	sc := getScratch()
	for _, ut := range sample {
		inSample[ut.user] = struct{}{}
		recs[ut.user], _ = g.sweepUser(ctx, ut.user, g.cfg.N, dyn.freq, true, true, sc)
		if !fullSequential {
			snapshots = append(snapshots, freqSnapshot{theta: ut.theta, freq: dyn.Frequencies()})
		}
	}
	scratchPool.Put(sc)

	if fullSequential {
		return recs
	}

	// Out-of-sample pass (lines 11–15): each remaining user reuses the frozen
	// frequency snapshot of the sampled user with the closest θ. These users'
	// value functions are independent of each other, so the pass shards
	// across Config.Workers, one contiguous range and one scratch per worker,
	// exactly as the paper observes.
	var remaining []userTheta
	for _, ut := range all {
		if _, done := inSample[ut.user]; done {
			continue
		}
		remaining = append(remaining, ut)
	}
	sets := make([]types.TopNSet, len(remaining))
	g.forEachShard(len(remaining), func(lo, hi int) {
		wsc := getScratch()
		defer scratchPool.Put(wsc)
		for k := lo; k < hi; k++ {
			ut := remaining[k]
			snap := nearestSnapshotFreq(snapshots, ut.theta)
			sets[k], _ = g.sweepUser(ctx, ut.user, g.cfg.N, snap, false, false, wsc)
		}
	})
	// Fold the out-of-sample recommendations into the final frequency state
	// so the recommender's end state reflects the full collection.
	for k, ut := range remaining {
		recs[ut.user] = sets[k]
		for _, i := range sets[k] {
			dyn.Observe(i)
		}
	}
	return recs
}

// sampleUsersByKDE draws sampleSize users whose θ values follow the KDE of
// the preference distribution (Algorithm 1, line 2): sample θ* values from
// the KDE, then map each θ* to the not-yet-chosen user with the nearest θ.
func (g *GANC) sampleUsersByKDE(all []userTheta, sampleSize int, rng *rand.Rand) []userTheta {
	thetas := make([]float64, len(all))
	for k, ut := range all {
		thetas[k] = ut.theta
	}
	density, err := kde.New(thetas, 0)
	var draws []float64
	if err == nil {
		draws = density.SampleClamped(sampleSize, 0, 1, rng)
	} else {
		draws = make([]float64, sampleSize)
		for i := range draws {
			draws[i] = rng.Float64()
		}
	}

	// Sort users by θ once; for each draw pick the nearest unused user via
	// binary search with a small outward scan for collisions.
	sorted := append([]userTheta(nil), all...)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].theta != sorted[b].theta {
			return sorted[a].theta < sorted[b].theta
		}
		return sorted[a].user < sorted[b].user
	})
	used := make([]bool, len(sorted))
	sample := make([]userTheta, 0, sampleSize)
	for _, d := range draws {
		idx := sort.Search(len(sorted), func(k int) bool { return sorted[k].theta >= d })
		pick := -1
		for offset := 0; offset < len(sorted); offset++ {
			lo, hi := idx-offset, idx+offset
			if lo >= 0 && lo < len(sorted) && !used[lo] {
				pick = lo
				break
			}
			if hi >= 0 && hi < len(sorted) && !used[hi] {
				pick = hi
				break
			}
		}
		if pick < 0 {
			break // every user already sampled
		}
		used[pick] = true
		sample = append(sample, sorted[pick])
	}
	return sample
}

// freqSnapshot is the Dyn frequency state recorded after a sampled user's
// top-N set was assigned, keyed by that user's θ (Algorithm 1, line 8).
type freqSnapshot struct {
	theta float64
	freq  []int
}

// nearestSnapshotFreq returns the frequency snapshot whose θ is closest to
// theta. snapshots must be sorted by θ (they are, because the sample is
// processed in increasing θ).
func nearestSnapshotFreq(snapshots []freqSnapshot, theta float64) []int {
	if len(snapshots) == 0 {
		return nil
	}
	idx := sort.Search(len(snapshots), func(k int) bool { return snapshots[k].theta >= theta })
	if idx == 0 {
		return snapshots[0].freq
	}
	if idx >= len(snapshots) {
		return snapshots[len(snapshots)-1].freq
	}
	if theta-snapshots[idx-1].theta <= snapshots[idx].theta-theta {
		return snapshots[idx-1].freq
	}
	return snapshots[idx].freq
}

// ValueOf computes the objective value Σ_u v_u(P_u) of a recommendation
// collection under this GANC instance's components, using the *static*
// interpretation of the coverage score for Dyn (i.e. the value as defined in
// Eq. A.2, recomputed from scratch over the collection). It is used by tests
// and the ablation benchmarks to compare optimizer variants.
func (g *GANC) ValueOf(recs types.Recommendations) float64 {
	// For Dyn the value of the collection is Σ_i Σ_{k=1..f_i} 1/√k weighted
	// by each recommending user's θ; recompute by replaying the collection.
	if _, isDyn := g.crec.(*DynCoverage); isDyn {
		freq := make(map[types.ItemID]int)
		total := 0.0
		// Replay users in ascending UserID for determinism.
		users := make([]types.UserID, 0, len(recs))
		for u := range recs {
			users = append(users, u)
		}
		sort.Slice(users, func(a, b int) bool { return users[a] < users[b] })
		for _, u := range users {
			theta := g.prefs.Get(u)
			for _, i := range recs[u] {
				acc := g.arec.AccuracyScore(u, i)
				cov := 1 / math.Sqrt(float64(freq[i])+1)
				total += (1-theta)*acc + theta*cov
				freq[i]++
			}
		}
		return total
	}
	total := 0.0
	for u, set := range recs {
		theta := g.prefs.Get(u)
		for _, i := range set {
			total += (1-theta)*g.arec.AccuracyScore(u, i) + theta*g.crec.CoverageScore(u, i)
		}
	}
	return total
}
