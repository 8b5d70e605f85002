// Package longtail implements the paper's user long-tail novelty preference
// models (Section II): the simple Activity, Normalized long-tail and
// TFIDF-based measures, the Random and Constant controls used in the
// ablation, and the Generalized preference θ^G learned by the alternating
// min–max optimization of Eq. II.4–II.6.
//
// Every estimator returns one value per user in [0,1]; 0 means the user is
// best served by popular items, 1 means the user actively seeks long-tail
// items.
package longtail

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"ganc/internal/dataset"
	"ganc/internal/mat"
	"ganc/internal/types"
)

// Model identifies a preference estimator. The names follow the paper's
// superscripts: θ^A, θ^N, θ^T, θ^G plus the θ^R / θ^C controls.
type Model string

const (
	// ModelActivity is θ^A: the (normalized) number of items the user rated.
	ModelActivity Model = "Activity"
	// ModelNormalizedLongTail is θ^N: the fraction of the user's rated items
	// that are long-tail (Eq. II.1).
	ModelNormalizedLongTail Model = "NormalizedLongTail"
	// ModelTFIDF is θ^T: the rating-weighted inverse-popularity measure
	// (Eq. II.2).
	ModelTFIDF Model = "TFIDF"
	// ModelGeneralized is θ^G: the learned weighted preference (Eq. II.6).
	ModelGeneralized Model = "Generalized"
	// ModelRandom is θ^R: uniformly random preferences (ablation control).
	ModelRandom Model = "Random"
	// ModelConstant is θ^C: the same constant for every user (ablation control).
	ModelConstant Model = "Constant"
)

// Preferences holds one θ_u per user, aligned with the dataset's UserIDs.
type Preferences struct {
	Model  Model
	Values []float64
}

// Get returns θ_u, or 0 for out-of-range users.
func (p *Preferences) Get(u types.UserID) float64 {
	if int(u) < 0 || int(u) >= len(p.Values) {
		return 0
	}
	return p.Values[u]
}

// Len returns the number of users covered.
func (p *Preferences) Len() int { return len(p.Values) }

// Clone returns a deep copy of the preference vector.
func (p *Preferences) Clone() *Preferences {
	values := make([]float64, len(p.Values))
	copy(values, p.Values)
	return &Preferences{Model: p.Model, Values: values}
}

// Histogram bins the preference values into `bins` equal-width buckets over
// [0,1], the quantity plotted in the paper's Figure 2.
func (p *Preferences) Histogram(bins int) []int {
	if bins <= 0 {
		bins = 10
	}
	out := make([]int, bins)
	for _, v := range p.Values {
		b := int(v * float64(bins))
		if b >= bins {
			b = bins - 1
		}
		if b < 0 {
			b = 0
		}
		out[b]++
	}
	return out
}

// Mean returns the average preference across users.
func (p *Preferences) Mean() float64 { return mat.Mean(p.Values) }

// StdDev returns the standard deviation of preferences across users.
func (p *Preferences) StdDev() float64 { return mat.StdDev(p.Values) }

// Activity computes θ^A_u = |I^R_u|, min–max normalized across users.
func Activity(train *dataset.Dataset) *Preferences {
	vals := make([]float64, train.NumUsers())
	for u := range vals {
		vals[u] = float64(len(train.UserRatings(types.UserID(u))))
	}
	mat.Normalize01(vals)
	return &Preferences{Model: ModelActivity, Values: vals}
}

// NormalizedLongTail computes θ^N_u = |I^R_u ∩ L| / |I^R_u| (Eq. II.1), the
// fraction of the user's train items that belong to the long tail L.
func NormalizedLongTail(train *dataset.Dataset, tail map[types.ItemID]struct{}) *Preferences {
	vals := make([]float64, train.NumUsers())
	for u := range vals {
		items := train.UserItems(types.UserID(u))
		if len(items) == 0 {
			continue
		}
		cnt := 0
		for _, i := range items {
			if _, ok := tail[i]; ok {
				cnt++
			}
		}
		vals[u] = float64(cnt) / float64(len(items))
	}
	return &Preferences{Model: ModelNormalizedLongTail, Values: vals}
}

// perUserItemPreference computes θ_ui = r_ui · log(|U| / |U^R_i|), the
// per-user-item long-tail preference value from Eq. II.3, for every train
// rating, then projects all θ_ui onto [0,1] as required by the generalized
// model (|θ_ui − θ^G_u| ≤ 1).
//
// The paper only states that the θ_ui are projected to the unit interval. A
// plain global min–max projection lets the handful of extreme values (a
// 5-star rating on an item rated once) compress the bulk of the distribution
// into the bottom of the interval, which flattens the Figure 2 histograms and
// neutralizes the θ_u > 0.5 region the Dyn coverage trade-off depends on. We
// therefore use a robust projection: min–max between the 1st and 99th
// percentiles with clamping, which preserves ordering for 98% of the mass and
// reproduces the paper's "normally distributed with larger mean and variance"
// shape for θ^G.
func perUserItemPreference(train *dataset.Dataset) []float64 {
	numUsers := float64(train.NumUsers())
	vals := make([]float64, train.NumRatings())
	for idx, r := range train.Ratings() {
		pop := float64(train.ItemPopularity(r.Item))
		if pop < 1 {
			pop = 1
		}
		vals[idx] = r.Value * math.Log(numUsers/pop)
	}
	projectUnitRobust(vals, 0.01, 0.99)
	return vals
}

// projectUnitRobust rescales vals in place so that the loQ quantile maps to 0
// and the hiQ quantile maps to 1, clamping values outside that range. A
// degenerate spread falls back to zeroing the vector, matching
// mat.Normalize01's convention for constant input.
func projectUnitRobust(vals []float64, loQ, hiQ float64) {
	if len(vals) == 0 {
		return
	}
	sorted := append([]float64(nil), vals...)
	sortFloat64s(sorted)
	lo := quantileSorted(sorted, loQ)
	hi := quantileSorted(sorted, hiQ)
	span := hi - lo
	if span <= 0 {
		mat.Normalize01(vals)
		return
	}
	for i, v := range vals {
		vals[i] = mat.Clamp((v-lo)/span, 0, 1)
	}
}

func sortFloat64s(v []float64) {
	sort.Float64s(v)
}

// quantileSorted returns the linearly interpolated q-quantile of a sorted
// slice.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// TFIDF computes θ^T_u (Eq. II.2): the average of the user's θ_ui values.
// The θ_ui are projected to [0,1] first, exactly as the generalized model
// requires, so θ^T and θ^G live on the same scale and are comparable in the
// Figure 2 histograms.
func TFIDF(train *dataset.Dataset) *Preferences {
	thetaUI := perUserItemPreference(train)
	vals := make([]float64, train.NumUsers())
	for u := range vals {
		idxs := train.UserRatings(types.UserID(u))
		if len(idxs) == 0 {
			continue
		}
		s := 0.0
		for _, idx := range idxs {
			s += thetaUI[idx]
		}
		vals[u] = s / float64(len(idxs))
	}
	return &Preferences{Model: ModelTFIDF, Values: vals}
}

// Random assigns each user an independent uniform preference in [0,1]
// (ablation control θ^R).
func Random(numUsers int, seed int64) *Preferences {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, numUsers)
	for u := range vals {
		vals[u] = rng.Float64()
	}
	return &Preferences{Model: ModelRandom, Values: vals}
}

// Constant assigns every user the same preference c (ablation control θ^C;
// the paper reports c = 0.5).
func Constant(numUsers int, c float64) *Preferences {
	c = mat.Clamp(c, 0, 1)
	vals := make([]float64, numUsers)
	for u := range vals {
		vals[u] = c
	}
	return &Preferences{Model: ModelConstant, Values: vals}
}

// GeneralizedConfig configures the alternating min–max solver for θ^G.
type GeneralizedConfig struct {
	// Iterations is the number of alternating w / θ^G updates. The updates
	// are closed form (Eq. II.5 and II.6), so a handful of iterations
	// suffices for convergence.
	Iterations int
	// Lambda is the log-barrier regularization coefficient λ₁ that keeps the
	// item weights away from zero. The paper sets λ₁ = 1.
	Lambda float64
	// Tolerance stops the iteration early once the largest change in any
	// θ^G_u falls below it.
	Tolerance float64
}

// DefaultGeneralizedConfig mirrors the paper: λ₁ = 1, with enough iterations
// for the closed-form alternation to converge.
func DefaultGeneralizedConfig() GeneralizedConfig {
	return GeneralizedConfig{Iterations: 50, Lambda: 1.0, Tolerance: 1e-6}
}

// GeneralizedResult bundles the learned user preferences and item weights.
type GeneralizedResult struct {
	Preferences *Preferences
	// ItemWeights are the learned importance weights w_i (Eq. II.5), indexed
	// by ItemID. Items with no train ratings keep weight 0.
	ItemWeights []float64
	// Iterations is the number of alternating updates actually performed.
	Iterations int
}

// Generalized learns θ^G by alternating the closed-form updates of the
// min–max objective (Eq. II.4):
//
//	w_i   = λ₁ / ε_i                        (Eq. II.5, minimization step)
//	θ^G_u = Σ_i w_i·θ_ui / Σ_i w_i          (Eq. II.6, maximization step)
//
// where ε_i = Σ_{u∈U_i} [1 − (θ_ui − θ^G_u)²] is the item mediocrity. θ_ui is
// projected onto [0,1] beforehand so |θ_ui − θ^G_u| ≤ 1 always holds and the
// mediocrity is non-negative. θ^G is initialized at the TFIDF solution (all
// weights equal), which is exactly the w_i = 1 special case the paper notes.
func Generalized(train *dataset.Dataset, cfg GeneralizedConfig) *GeneralizedResult {
	if cfg.Iterations <= 0 {
		cfg.Iterations = DefaultGeneralizedConfig().Iterations
	}
	if cfg.Lambda <= 0 {
		cfg.Lambda = 1.0
	}
	if cfg.Tolerance <= 0 {
		cfg.Tolerance = 1e-6
	}

	thetaUI := perUserItemPreference(train)
	numUsers, numItems := train.NumUsers(), train.NumItems()

	// Initialize θ^G at the equal-weight (TFIDF) solution.
	theta := make([]float64, numUsers)
	for u := 0; u < numUsers; u++ {
		idxs := train.UserRatings(types.UserID(u))
		if len(idxs) == 0 {
			continue
		}
		s := 0.0
		for _, idx := range idxs {
			s += thetaUI[idx]
		}
		theta[u] = s / float64(len(idxs))
	}
	weights := make([]float64, numItems)

	iters := 0
	for it := 0; it < cfg.Iterations; it++ {
		iters = it + 1
		// Minimization step: w_i = λ₁ / ε_i.
		for i := 0; i < numItems; i++ {
			idxs := train.ItemRatings(types.ItemID(i))
			if len(idxs) == 0 {
				weights[i] = 0
				continue
			}
			mediocrity := 0.0
			for _, idx := range idxs {
				r := train.Rating(idx)
				d := thetaUI[idx] - theta[r.User]
				mediocrity += 1 - d*d
			}
			if mediocrity < 1e-9 {
				mediocrity = 1e-9
			}
			weights[i] = cfg.Lambda / mediocrity
		}
		// Maximization step: θ^G_u = weighted average of the user's θ_ui.
		maxDelta := 0.0
		for u := 0; u < numUsers; u++ {
			idxs := train.UserRatings(types.UserID(u))
			if len(idxs) == 0 {
				continue
			}
			num, den := 0.0, 0.0
			for _, idx := range idxs {
				r := train.Rating(idx)
				w := weights[r.Item]
				num += w * thetaUI[idx]
				den += w
			}
			if den == 0 {
				continue
			}
			next := num / den
			if d := math.Abs(next - theta[u]); d > maxDelta {
				maxDelta = d
			}
			theta[u] = next
		}
		if maxDelta < cfg.Tolerance {
			break
		}
	}
	// θ_ui ∈ [0,1] and θ^G is a convex combination of them, so it is already
	// in [0,1]; clamp defensively against floating-point drift.
	for u := range theta {
		theta[u] = mat.Clamp(theta[u], 0, 1)
	}
	return &GeneralizedResult{
		Preferences: &Preferences{Model: ModelGeneralized, Values: theta},
		ItemWeights: weights,
		Iterations:  iters,
	}
}

// Estimate computes the preferences for the requested model. It is the
// convenience entry point used by the CLI and the experiment harness.
// The tail set is only needed for ModelNormalizedLongTail and may be nil for
// the others; constant is only used for ModelConstant; seed only for
// ModelRandom.
func Estimate(model Model, train *dataset.Dataset, tail map[types.ItemID]struct{}, constant float64, seed int64) (*Preferences, error) {
	switch model {
	case ModelActivity:
		return Activity(train), nil
	case ModelNormalizedLongTail:
		if tail == nil {
			tail = train.LongTail(dataset.DefaultTailShare)
		}
		return NormalizedLongTail(train, tail), nil
	case ModelTFIDF:
		return TFIDF(train), nil
	case ModelGeneralized:
		return Generalized(train, DefaultGeneralizedConfig()).Preferences, nil
	case ModelRandom:
		return Random(train.NumUsers(), seed), nil
	case ModelConstant:
		return Constant(train.NumUsers(), constant), nil
	default:
		return nil, fmt.Errorf("longtail: unknown preference model %q", model)
	}
}
