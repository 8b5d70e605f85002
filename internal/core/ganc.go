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
	"iter"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"

	"ganc/internal/dataset"
	"ganc/internal/kde"
	"ganc/internal/linalg"
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
// a catalog-wide buffer with user u's scores for every item and returns the
// map that takes each to a(i) — the identity, or the min–max map of a
// normalised model's raw scores, which a turn applies in the walk it makes
// anyway. Mapped, the values are exactly what AccuracyScore returns (accuracy
// scores are stateless by contract, so buffering them for a sweep is sound).
type BulkAccuracy interface {
	// AccuracyScores fills out[i] with the score the returned map takes to
	// a(i) for user u, for every item i below len(out) — the catalog's size.
	AccuracyScores(u types.UserID, out []float64) recommender.MinMax[float64]
}

// BulkAccuracy32 is the float32 companion of BulkAccuracy. Implementations
// must agree with AccuracyScore to the documented tolerance (DESIGN.md §12).
// An accuracy recommender that implements it is swept in float32 — scores,
// gains and selection — everywhere but OSLG's sequential phase; one that does
// not is swept in float64.
type BulkAccuracy32 interface {
	// AccuracyScores32 is AccuracyScores into a float32 buffer.
	AccuracyScores32(u types.UserID, out []float32) recommender.MinMax[float32]
}

// BoundedAccuracy32 is a BulkAccuracy32 that can bound a user's scores before
// it computes them, so a turn scores only the items the bounds cannot rule
// out (DESIGN.md §12). recommender.NormalizedScorer is one.
type BoundedAccuracy32 interface {
	// AccuracyBounds32 is AccuracyScores32, except that when it returns a
	// scorer, out holds a bound of every item's raw score instead — out[i]
	// is NaN, or at least the raw score AccuracyScores32 would give item i,
	// which is then not NaN, and that score itself for every item of the
	// ascending list it returns — the map is strictly increasing, and the
	// scorer's list body gives the raw scores themselves. The list lives in
	// sc until its next use.
	AccuracyBounds32(u types.UserID, out []float32, sc *recommender.BoundScratch) (recommender.MinMax[float32], recommender.BulkScorer32, []types.ItemID)
}

// PopAccuracy is the paper's Pop accuracy recommender: a(i) = 1 when i is in
// the user's popularity top-N (excluding their train items), 0 otherwise.
// Each call selects the user's top-N in one pass over their candidates and
// keeps nothing, so it is safe for concurrent use.
type PopAccuracy struct {
	pop   *recommender.Pop
	train *dataset.Dataset
	topN  int
}

// top selects user u's popularity top-N: the N candidates with the most train
// ratings, ties to the smaller ItemID, as recommender.SelectTop ranks them.
func (p *PopAccuracy) top(u types.UserID) types.TopNSet {
	rated, numItems := p.train.UserItemsSorted(u), p.train.NumItems()
	h := walkHeap[float64](rated, numItems, p.topN)
	bar := math.Inf(-1)
	for lo, hi := range candidateRuns(rated, numItems) {
		for i := lo; i < hi; i++ {
			if s := p.pop.Score(u, types.ItemID(i)); !(s < bar) {
				bar = h.Offer(types.ItemID(i), s)
			}
		}
	}
	return h.Ranked()
}

// AccuracyScore implements AccuracyRecommender: membership in the user's
// popularity top-N, selected for this one item; a caller that asks about
// many items of one user reads AccuracyScores instead.
func (p *PopAccuracy) AccuracyScore(u types.UserID, i types.ItemID) float64 {
	if slices.Contains(p.top(u), i) {
		return 1
	}
	return 0
}

// AccuracyScores implements BulkAccuracy: the top-N is selected once for the
// whole catalog.
func (p *PopAccuracy) AccuracyScores(u types.UserID, out []float64) recommender.MinMax[float64] {
	return fillIndicators(p.top(u), out)
}

// AccuracyScores32 implements BulkAccuracy32: indicator scores are exact in
// float32, so the float32 sweep reads the same memberships.
func (p *PopAccuracy) AccuracyScores32(u types.UserID, out []float32) recommender.MinMax[float32] {
	return fillIndicators(p.top(u), out)
}

// fillIndicators sets out[i] to 1 for each item i of top that out holds, and
// every other entry to 0.
func fillIndicators[T float32 | float64](top types.TopNSet, out []T) recommender.MinMax[T] {
	clear(out)
	for _, i := range top {
		if int(i) < len(out) {
			out[i] = 1
		}
	}
	return recommender.Identity[T]()
}

// Name implements AccuracyRecommender.
func (p *PopAccuracy) Name() string { return "Pop" }

// --- Coverage recommenders ----------------------------------------------------

// BulkCoverage is the batch companion of CoverageRecommender, as BulkAccuracy
// is of AccuracyRecommender: one call fills a catalog-indexed row with the
// values CoverageScore would return for a user's candidates. Rand implements
// it; a turn reads Stat's static row as it is, and Dyn's rows are built from
// a frequency state (coverage).
type BulkCoverage interface {
	// CoverageRow sets row[i] to c(i) for user u for every candidate i: every
	// item below len(row) outside the sorted run rated, in ascending order
	// (candidateRuns). It leaves the other entries alone.
	CoverageRow(u types.UserID, rated []types.ItemID, row []float64)
}

// invSqrtTab caches 1/√(f+1) for small frequencies f. Coverage scores are
// dominated by tiny integer frequencies (train popularities and
// recommendation counts), so the rows a turn reads — Stat's row, each Dyn row
// (invSqrtRow) and OSLG's live row — and Dyn's CoverageScore take a table
// entry instead of calling math.Sqrt. Entries are computed by the exact
// expression the off-table fallback uses, so tabled and computed scores are
// bit-identical.
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

// CoverageRow implements BulkCoverage: the mutex is taken once per sweep
// instead of once per item, and the draws are taken in candidate order.
func (r *RandCoverage) CoverageRow(_ types.UserID, rated []types.ItemID, row []float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fillCandidates(row, rated, func(types.ItemID) float64 { return r.rng.Float64() })
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
		scores[i] = invSqrtFreq(train.ItemPopularity(types.ItemID(i)))
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

	// gen counts mutations of freq; frozen compares it against snapGen to
	// decide whether the cached read-only row is still current. Observe (the
	// batch path) must not run concurrently with readers, per the engine
	// contract; snapMu only serializes concurrent online row requests against
	// each other.
	gen     uint64
	snapMu  sync.Mutex
	snap    coverage
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
// (what an engine snapshot persists).
func (d *DynCoverage) Frequencies() []int {
	out := make([]int, len(d.freq))
	copy(out, d.freq)
	return out
}

// frozen returns the coverage row of the current frequency state for the
// online serving path, at the walk's width (float32 when f32 is set). The row
// is cached and shared across requests until the next mutation: when the
// generation counter has moved, or the width asked is the other one, a fresh
// row is built (never the old one re-filled, since earlier callers may still
// be reading it), otherwise the call is a mutex-protected read. Callers must
// not modify the row.
func (d *DynCoverage) frozen(f32 bool) coverage {
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	if !d.hasSnap || d.snapGen != d.gen || (d.snap.row32 != nil) != f32 {
		d.snap, d.snapGen, d.hasSnap = dynRow(d.freq, f32), d.gen, true
	}
	return d.snap
}

// dynRow is the coverage row of the Dyn frequency state freq, c(i) =
// 1/√(f_i+1) for every item, at the walk's width (float32 when f32 is set).
// Every frequency state a turn reads has one: the frozen state of the online
// path, and OSLG's snapshot after each sampled user.
func dynRow(freq []int, f32 bool) coverage {
	if f32 {
		return coverage{row32: invSqrtRow[float32](freq)}
	}
	return coverage{row64: invSqrtRow[float64](freq)}
}

func invSqrtRow[T float32 | float64](freq []int) []T {
	row := make([]T, len(freq))
	for i, f := range freq {
		row[i] = T(invSqrtFreq(f))
	}
	return row
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
	// f32 is set when the accuracy recommender is a BulkAccuracy32: every
	// turn but OSLG's sequential phase then runs in float32.
	f32 bool
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
	if stat, ok := crec.(*StatCoverage); ok && len(stat.scores) != train.NumItems() {
		return nil, fmt.Errorf("core: Stat scores cover %d items but train set has %d", len(stat.scores), train.NumItems())
	}
	_, f32 := arec.(BulkAccuracy32)
	return &GANC{
		cfg:      cfg,
		arec:     arec,
		crec:     crec,
		prefs:    prefs,
		train:    train,
		numItems: train.NumItems(),
		f32:      f32,
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

// sweepScratch holds one worker's reusable buffers: the catalog-indexed rows a
// turn scores into (float32 and float64 accuracy scores, and the coverage row
// of a recommender that is asked), the short item list SurvivesGrowth scores,
// what a bound row's range certification needs, and one block of a bounded
// walk: the items it keeps, those of them the list body scores, their scores
// and c(i) side by side, and the positions among them that reach the bar.
// One scratch serves one sweep at a time. Every buffer starts empty and grows
// to what the sweeps using it need, so a scratch fits any instance and any
// catalog size, and none of them points into the instance it last served.
type sweepScratch struct {
	raw32         []float32
	raw64         []float64
	cov           []float64
	cand          []types.ItemID
	bound         recommender.BoundScratch
	scored        []bool
	kept, ask, at []types.ItemID
	pos           []int32
	exact, asked  []float32
	covs          []float32
}

// scratchPool recycles sweep scratches across requests, batch workers and
// instances. It is process-wide on purpose: a sync.Pool is reachable from the
// runtime until two collections after its last use, so a pool inside GANC
// would keep every retired serving generation — and the train set it holds —
// alive that long, and each new generation would start with cold buffers.
var scratchPool = sync.Pool{New: func() interface{} { return new(sweepScratch) }}

func getScratch() *sweepScratch { return scratchPool.Get().(*sweepScratch) }

// candidateRuns yields the candidates of a user whose sorted rated run is
// rated — the items below numItems it does not name — as the runs [lo, hi)
// between its items, in ascending order. A duplicate in the run, and an
// identifier at or past numItems, are passed over, as
// dataset.AppendCandidates passes them.
func candidateRuns(rated []types.ItemID, numItems int) iter.Seq2[int, int] {
	return func(yield func(lo, hi int) bool) {
		next := 0
		for _, r := range rated {
			if int(r) >= numItems {
				break
			}
			if int(r) < next {
				continue
			}
			if !yield(next, int(r)) {
				return
			}
			next = int(r) + 1
		}
		yield(next, numItems)
	}
}

// coverage is where a turn reads c(i): a catalog-indexed row — row32 beside a
// float32 walk of a Dyn state, row64 otherwise — or neither, and the turn asks
// the coverage recommender.
type coverage struct {
	row32 []float32
	row64 []float64
}

// sweepUser builds one user's top-n set in one pass over item-indexed
// buffers: one bulk accuracy call scores the user's whole catalog (scoreTurn)
// and one walk reads each candidate's score and c(i) by item ID, skipping the
// user's sorted rated run, and keeps the n largest gains, ties to the smaller
// ItemID (turn.top). No candidate list is built.
//
// One scoring pass is the whole of a user's turn in Algorithm 1 (lines 5–9),
// for every coverage recommender. The turn picks n distinct items, and the
// only thing a pick moves is the coverage score of the item picked (the
// CoverageRecommender contract; for Dyn, its frequency), which has left the
// pool. Every remaining candidate's gain is what it was when the turn began,
// so the locally greedy sequence of picks is the candidates in decreasing
// order of that gain. The caller observes the picks, if anyone does.
//
// cov is the row c(i) is read from: a Dyn frequency state's row (the frozen
// state of the online path, OSLG's snapshots, the live state of its sequential
// phase), or none, and the coverage recommender is asked. exact keeps the turn
// in float64 whatever the accuracy recommender offers; a row32 comes only with
// a turn that is not.
func (g *GANC) sweepUser(ctx context.Context, u types.UserID, n int, cov coverage, exact bool, sc *sweepScratch) (types.TopNSet, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t := g.scoreTurn(u, g.train.UserItemsSorted(u), cov, exact, sc)
	// Scoring is most of a sweep's cost on a large catalog: a caller that
	// gave up during it is answered before the walk.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return t.top(n, sc), nil
}

// turn is a user's turn after the scoring stage: the bulk call's scores of the
// whole catalog, indexed by item (raw32 when the turn runs in float32, raw64
// when in float64), the map that takes them to a(i), the row c(i) is read
// from, and the user's sorted rated run, which the walk skips. A bounded
// turn's raw32 holds bounds of the scores instead, but the scores themselves
// for the ascending items of done, and list is the scorer whose list body
// gives the scores of the other items the bounds do not rule out.
type turn struct {
	raw32 []float32
	map32 recommender.MinMax[float32]
	raw64 []float64
	map64 recommender.MinMax[float64]
	theta float64
	coverage
	rated []types.ItemID
	user  types.UserID
	list  recommender.BulkScorer32
	done  []types.ItemID
}

// scoreTurn is the scoring stage of a turn, and the one place its arithmetic
// is chosen: one bulk accuracy call into a catalog-wide scratch buffer. An
// accuracy recommender that implements BulkAccuracy32 is scored and walked in
// float32, to the documented tolerance (DESIGN.md §12), unless exact is set;
// any other, in float64, and one that is not a BulkAccuracy is asked one
// candidate at a time. A float32 turn beside a float32 row whose recommender
// bounds the user's scores (BoundedAccuracy32) — every Dyn turn but OSLG's
// sequential phase, a user's first touch included, whose range the bound
// rows certify — takes the bound row instead, and its walk scores what the
// bounds keep; θ must lie in [0, 1], where a gain is non-decreasing in the
// score. Without a row in cov, Stat's static row is read as it is, and any
// other coverage recommender fills the scratch row for the candidates: one
// bulk call, or one CoverageScore per candidate — sound once per sweep under
// its contract.
func (g *GANC) scoreTurn(u types.UserID, rated []types.ItemID, cov coverage, exact bool, sc *sweepScratch) turn {
	t := turn{theta: g.prefs.Get(u), coverage: cov, rated: rated, user: u}
	if cov.row32 == nil && cov.row64 == nil {
		switch crec := g.crec.(type) {
		case *StatCoverage:
			t.row64 = crec.scores
		case BulkCoverage:
			t.row64 = recommender.Sized(&sc.cov, g.numItems)
			crec.CoverageRow(u, rated, t.row64)
		default:
			t.row64 = recommender.Sized(&sc.cov, g.numItems)
			fillCandidates(t.row64, rated, func(i types.ItemID) float64 { return crec.CoverageScore(u, i) })
		}
	}
	if g.f32 && !exact {
		t.raw32 = recommender.Sized(&sc.raw32, g.numItems)
		if ba, ok := g.arec.(BoundedAccuracy32); ok && t.row32 != nil && float32(t.theta) >= 0 && float32(t.theta) <= 1 {
			t.map32, t.list, t.done = ba.AccuracyBounds32(u, t.raw32, &sc.bound)
			return t
		}
		t.map32 = g.arec.(BulkAccuracy32).AccuracyScores32(u, t.raw32)
		return t
	}
	t.raw64, t.map64 = recommender.Sized(&sc.raw64, g.numItems), recommender.Identity[float64]()
	if ba, ok := g.arec.(BulkAccuracy); ok {
		t.map64 = ba.AccuracyScores(u, t.raw64)
		return t
	}
	fillCandidates(t.raw64, rated, func(i types.ItemID) float64 { return g.arec.AccuracyScore(u, i) })
	return t
}

// fillCandidates sets row[i] to at(i) for every candidate i, in ascending
// order.
func fillCandidates(row []float64, rated []types.ItemID, at func(types.ItemID) float64) {
	for lo, hi := range candidateRuns(rated, len(row)) {
		for i := lo; i < hi; i++ {
			row[i] = at(types.ItemID(i))
		}
	}
}

// top walks the turn once: its n candidates of largest gain, best first. A
// float32 turn over a float32 coverage row — every Dyn turn but OSLG's
// sequential phase — walks block by block through the gain scan
// (boundedWalk).
func (t *turn) top(n int, sc *sweepScratch) types.TopNSet {
	switch {
	case t.raw32 != nil && t.row32 != nil:
		return boundedWalk(t.raw32, t.list, t.done, t.user, t.map32, float32(t.theta), t.row32, t.rated, n, sc)
	case t.raw32 != nil:
		return walk(t.raw32, t.map32, float32(t.theta), t.row64, t.rated, n)
	}
	return walk(t.raw64, t.map64, t.theta, t.row64, t.rated, n)
}

// gainOf is the one place a gain is computed: (1−θ)·a(i) + θ·c(i) in the
// arithmetic of T, a(i) the item's raw score through the user's map. Each
// product is converted to T before the sum, which the language defines to
// round it: no build may fuse a product and the sum into one FMA, so the gain
// is the same on every target and equals the gain scan's.
func gainOf[T, C float32 | float64](raw T, m recommender.MinMax[T], theta T, c C) T {
	return T((1-theta)*m.At(raw)) + T(theta*T(c))
}

// walk is the walk of a turn: raw and cov are indexed by item over the whole
// catalog, and the candidates are read run by run between the rated items.
// Each gain is held against the bar of the n best so far, and only one that
// reaches it touches the heap, whose rule decides.
func walk[T, C float32 | float64](raw []T, m recommender.MinMax[T], theta T, cov []C, rated []types.ItemID, n int) types.TopNSet {
	if n <= 0 {
		return nil
	}
	h := walkHeap[T](rated, len(raw), n)
	bar := T(math.Inf(-1))
	for lo, hi := range candidateRuns(rated, len(raw)) {
		bar = walkRun(&h, bar, raw[lo:hi], cov[lo:hi], lo, m, theta)
	}
	return h.Ranked()
}

// boundedWalk is walk for a float32 turn beside a float32 row, block by block
// over the candidate runs. The gain scan keeps a block's items whose gain
// computed from row reaches the bar the block starts with; the block's kept
// items then get their scores — row's own on a cold turn, where list is nil;
// on a bounded turn, where row holds bounds of the scores
// (BoundedAccuracy32), row's own for the ascending items of done, whose
// scores it holds, and list's list body for the others — and those whose
// gain reaches the bar are offered in order, each held against the bar as
// walk holds it. Either way it selects walk's list, bit for bit (DESIGN.md
// §12): under a strictly increasing map and θ in [0, 1] a gain is
// non-decreasing in the score, so an item the scan drops has a gain below the
// block's bar; the bar never falls during a walk, so walk drops it too, and
// every item kept is offered with walk's gain against walk's bar. A NaN gain
// has a NaN bound and is kept. It scans at most recommender.LastBlock items
// against one bar, starting at recommender.FirstBlock and doubling: the bar
// is −Inf until n items have been offered, so the first block keeps every
// item, and a short one sets a bar soon.
func boundedWalk(row []float32, list recommender.BulkScorer32, done []types.ItemID, u types.UserID, m recommender.MinMax[float32], theta float32, cov []float32, rated []types.ItemID, n int, sc *sweepScratch) types.TopNSet {
	if n <= 0 {
		return nil
	}
	w := blockWalk{
		h: walkHeap[float32](rated, len(row), n), bar: float32(math.Inf(-1)), limit: recommender.FirstBlock,
		row: row, list: list, user: u, m: m, theta: theta, cov: cov, kept: recommender.Sized(&sc.kept, recommender.LastBlock),
	}
	if list != nil {
		w.at, w.exact, w.covs = recommender.Sized(&sc.at, recommender.LastBlock), recommender.Sized(&sc.exact, recommender.LastBlock), recommender.Sized(&sc.covs, recommender.LastBlock)
	}
	if len(done) > 0 {
		w.scored, w.ask, w.pos, w.asked = recommender.Sized(&sc.scored, len(row)), recommender.Sized(&sc.ask, recommender.LastBlock), recommender.Sized(&sc.pos, recommender.LastBlock), recommender.Sized(&sc.asked, recommender.LastBlock)
		clear(w.scored)
		for _, i := range done {
			w.scored[i] = true
		}
	}
	for lo, hi := range candidateRuns(rated, len(row)) {
		w.scan(lo, hi)
	}
	w.flush()
	return w.h.Ranked()
}

// blockWalk is a bounded walk's state: the heap and its bar, the block being
// scanned — scanned items so far, of at most limit, and the kept ones among
// them — and the buffers a flush fills; on a first touch, scored flags the
// items whose row entry is their score.
type blockWalk struct {
	h              recommender.TopHeap[float32]
	bar            float32
	scanned, limit int
	nkept          int
	row            []float32
	list           recommender.BulkScorer32
	user           types.UserID
	m              recommender.MinMax[float32]
	theta          float32
	cov            []float32
	scored         []bool
	kept, ask, at  []types.ItemID
	pos            []int32
	exact, asked   []float32
	covs           []float32
}

// scan adds the candidates [lo, hi) to the walk: the gain scan keeps those
// reaching the bar, and a block is flushed whenever it is full.
func (w *blockWalk) scan(lo, hi int) {
	for lo < hi {
		take := min(hi-lo, w.limit-w.scanned)
		w.nkept += gainScan(w.row[lo:lo+take], w.cov[lo:lo+take], w.m, w.theta, w.bar, types.ItemID(lo), w.kept[w.nkept:], w.list == nil)
		w.scanned += take
		lo += take
		if w.scanned == w.limit {
			w.flush()
		}
	}
}

// flush ends the block and offers its kept items that reach the bar, each
// with gainOf's gain against the bar as it stands. A cold walk's kept items
// are few (they reached a bar computed from the scores themselves), and each
// gain is read off the row. A bounded walk's get their scores first, side by
// side with their c(i) — the list body's, but the row's own for the items
// flagged scored, which were scored before the walk and are not scored
// again — and the gain scan finds those that reach the bar.
func (w *blockWalk) flush() {
	kept := w.kept[:w.nkept]
	w.nkept, w.scanned, w.limit = 0, 0, min(2*w.limit, recommender.LastBlock)
	if len(kept) == 0 {
		return
	}
	bar := w.bar
	if w.list == nil {
		for _, i := range kept {
			if g := gainOf(w.row[i], w.m, w.theta, w.cov[i]); !(g < bar) {
				bar = w.h.Offer(i, g)
			}
		}
		w.bar = bar
		return
	}
	exact, covs := w.exact[:len(kept)], w.covs[:len(kept)]
	if w.scored == nil {
		w.list.ScoreUser32(w.user, kept, exact)
		for k, i := range kept {
			covs[k] = w.cov[i]
		}
	} else {
		// Every kept item's row entry is read; those not flagged are listed
		// with their places, scored, and put in their places.
		ask, pos, n := w.ask, w.pos, 0
		for k, i := range kept {
			exact[k], covs[k] = w.row[i], w.cov[i]
			ask[n], pos[n] = i, int32(k)
			if !w.scored[i] {
				n++
			}
		}
		if n > 0 {
			asked := w.asked[:n]
			w.list.ScoreUser32(w.user, ask[:n], asked)
			for j, k := range pos[:n] {
				exact[k] = asked[j]
			}
		}
	}
	for _, k := range w.at[:gainScan(exact, covs, w.m, w.theta, bar, 0, w.at, true)] {
		if g := gainOf(exact[k], w.m, w.theta, covs[k]); !(g < bar) {
			bar = w.h.Offer(kept[k], g)
		}
	}
	w.bar = bar
}

// walkHeap is the heap of a walk that keeps n of the candidates of a catalog
// of numItems items: at most as many entries as there are candidates,
// whatever n asks.
func walkHeap[T float32 | float64](rated []types.ItemID, numItems, n int) recommender.TopHeap[T] {
	candidates := 0
	for lo, hi := range candidateRuns(rated, numItems) {
		candidates += hi - lo
	}
	return recommender.NewTopHeap[T](min(n, candidates))
}

// walkRun offers the items [lo, lo+len(raw)) of one run to h, item by item,
// and returns the bar it leaves. It is a function of its own so that the bar
// lives in a register: in the body of walk's range-over-func loop it would be
// a variable captured by reference, and the walk measurably slower.
func walkRun[T, C float32 | float64](h *recommender.TopHeap[T], bar T, raw []T, cov []C, lo int, m recommender.MinMax[T], theta T) T {
	cov = cov[:len(raw)]
	for k, s := range raw {
		if g := gainOf(s, m, theta, cov[k]); !(g < bar) {
			bar = h.Offer(types.ItemID(lo+k), g)
		}
	}
	return bar
}

// gainScan writes to out, in ascending order, first+k for every item k of
// raw whose gainOf gain reaches bar — !(g < bar), walkRun's test, so a tie and
// a NaN gain reach it — and returns how many it wrote, n; what it leaves in
// out[n:len(raw)] is linalg.GainScan's. A float32 map never divides, so its
// gain is linalg.GainScan's over the map's affine form. sparse says few items
// are expected to reach the bar and changes only its speed.
func gainScan(raw, cov []float32, m recommender.MinMax[float32], theta, bar float32, first types.ItemID, out []types.ItemID, sparse bool) int {
	min, scale := m.Affine()
	return linalg.GainScan(raw, cov, min, scale, theta, bar, first, out, sparse)
}

// firstOutranks reports whether cand[0] ranks above every other item of cand
// under the selection's rule, on the gains the walk computes: raw is aligned
// with cand, cov indexed by item.
func firstOutranks[T, C float32 | float64](cand []types.ItemID, raw []T, m recommender.MinMax[T], theta T, cov []C) bool {
	first := gainOf(raw[0], m, theta, cov[cand[0]])
	for k := 1; k < len(cand); k++ {
		g := gainOf(raw[k], m, theta, cov[cand[k]])
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
// — a short list, one bulk call through the normaliser's float32 path, as a
// turn of the normaliser runs — and each must rank below it under the
// selection's own rule, on the gain the walk computes (gainOf), c(i) read from
// the row a turn reads. New items u has rated since are scored too — they have
// left the pool, so at worst a list that would have survived is recomputed.
// Any other accuracy recommender, and a coverage recommender but Dyn or Stat,
// answers false.
func (g *GANC) SurvivesGrowth(u types.UserID, list types.TopNSet, from int) bool {
	norm, ok := g.arec.(*recommender.NormalizedScorer)
	if !ok || len(list) == 0 {
		return false
	}
	var cov coverage
	switch crec := g.crec.(type) {
	case *DynCoverage:
		cov = crec.frozen(true)
	case *StatCoverage:
		cov.row64 = crec.scores
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
	raw := recommender.Sized(&sc.raw32, len(cand))
	m, theta := norm.RawScores32(u, cand, raw), float32(g.prefs.Get(u))
	if cov.row32 != nil {
		return firstOutranks(cand, raw, m, theta, cov.row32)
	}
	return firstOutranks(cand, raw, m, theta, cov.row64)
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
			sets[u], _ = g.sweepUser(ctx, types.UserID(u), g.cfg.N, coverage{}, false, sc)
			for _, i := range sets[u] {
				g.crec.Observe(i)
			}
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
// against the shared frozen row of the frequency state (rebuilt only when the
// state has actually mutated, see DynCoverage.frozen),
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
		return nil, fmt.Errorf("core: user %d out of range [0,%d): %w", u, g.train.NumUsers(), types.ErrUnknownUser)
	}
	if n <= 0 {
		n = g.cfg.N
	}
	var cov coverage
	if dyn, ok := g.crec.(*DynCoverage); ok {
		cov = dyn.frozen(g.f32)
	}
	sc := getScratch()
	defer scratchPool.Put(sc)
	return g.sweepUser(ctx, u, n, cov, false, sc)
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
	// the row of the live frequency state, in float64 whatever the accuracy
	// recommender offers; their picks are observed and the row follows them.
	// The state after them is snapshotted as a row at the out-of-sample walk's
	// width, keyed by their θ, when an out-of-sample phase will read it.
	ctx := context.Background()
	var snapshots []snapshot[coverage]
	inSample := make(map[types.UserID]struct{}, len(sample))
	live := invSqrtRow[float64](dyn.freq)
	sc := getScratch()
	for _, ut := range sample {
		inSample[ut.user] = struct{}{}
		recs[ut.user], _ = g.sweepUser(ctx, ut.user, g.cfg.N, coverage{row64: live}, true, sc)
		for _, i := range recs[ut.user] {
			dyn.Observe(i)
			live[i] = invSqrtFreq(dyn.freq[i])
		}
		if !fullSequential {
			snapshots = append(snapshots, snapshot[coverage]{theta: ut.theta, state: dynRow(dyn.freq, g.f32)})
		}
	}
	scratchPool.Put(sc)

	if fullSequential {
		return recs
	}

	// Out-of-sample pass (lines 11–15): each remaining user reuses the frozen
	// coverage row of the sampled user with the closest θ. These users'
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
			sets[k], _ = g.sweepUser(ctx, ut.user, g.cfg.N, nearestSnapshot(snapshots, ut.theta), false, wsc)
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
	density, err := kde.New(thetas)
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

// snapshot is the Dyn frequency state recorded after a sampled user's top-N
// set was assigned, keyed by that user's θ (Algorithm 1, line 8): its coverage
// row, or (the reference optimizer) the frequencies themselves.
type snapshot[S any] struct {
	theta float64
	state S
}

// nearestSnapshot returns the state of the snapshot whose θ is closest to
// theta. snapshots must be sorted by θ (they are, because the sample is
// processed in increasing θ).
func nearestSnapshot[S any](snapshots []snapshot[S], theta float64) S {
	var none S
	if len(snapshots) == 0 {
		return none
	}
	idx := sort.Search(len(snapshots), func(k int) bool { return snapshots[k].theta >= theta })
	if idx == 0 {
		return snapshots[0].state
	}
	if idx >= len(snapshots) {
		return snapshots[len(snapshots)-1].state
	}
	if theta-snapshots[idx-1].theta <= snapshots[idx].theta-theta {
		return snapshots[idx-1].state
	}
	return snapshots[idx].state
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
