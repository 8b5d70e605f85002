// Package simulate is the scale-testing subsystem: deterministic synthetic
// serving universes, interaction/request stream generators, a closed-loop
// HTTP load driver for the serving endpoints, and a data-driven scenario
// runner that expresses full system lifecycles (train → save → serve → ingest
// → crash → recover) as phase lists.
//
// Everything here is seeded and reproducible: the same configuration always
// produces the byte-identical dataset and the byte-identical event stream, so
// an end-to-end scenario failure can be replayed exactly, and two systems fed
// the same streams can be compared for equivalence (the backbone of the
// kill-and-recover tests).
//
// The package builds only on the internal layers (dataset, synth, serve) and
// deliberately knows nothing about pipelines or persistence: the scenario
// runner drives the System interface, which the facade binds to the real
// Pipeline/Server/Ingestor stack.
package simulate

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"ganc/internal/dataset"
	"ganc/internal/serve"
	"ganc/internal/synth"
	"ganc/internal/types"
)

// UniverseConfig describes a synthetic serving universe: the user/item
// population, the interaction volume and the long-tail shape. The zero values
// of the optional fields select ML-100K-like marginals (Zipf-skewed item
// popularity, log-normal user activity, whole-star ratings — see
// internal/synth for the generative model).
type UniverseConfig struct {
	// Name labels the dataset (default "sim").
	Name string
	// Users and Items size the universe.
	Users int
	Items int
	// Ratings is the target interaction count (default: 20 per user).
	Ratings int
	// ZipfExponent controls item-popularity skew (default 1.0; the paper's
	// datasets span roughly 0.95–1.35).
	ZipfExponent float64
	// MinRatingsPerUser is the paper's τ (default 5).
	MinRatingsPerUser int
	// RatingLevels are the admissible rating values (default whole stars 1–5).
	RatingLevels []float64
	// Seed makes the universe fully deterministic: the same seed produces the
	// byte-identical dataset.
	Seed int64
}

// withDefaults fills the optional fields.
func (c UniverseConfig) withDefaults() UniverseConfig {
	if c.Name == "" {
		c.Name = "sim"
	}
	if c.Ratings <= 0 {
		c.Ratings = 20 * c.Users
	}
	if c.ZipfExponent <= 0 {
		c.ZipfExponent = 1.0
	}
	if c.MinRatingsPerUser <= 0 {
		c.MinRatingsPerUser = 5
	}
	if len(c.RatingLevels) == 0 {
		c.RatingLevels = []float64{1, 2, 3, 4, 5}
	}
	return c
}

// Universe is a generated synthetic serving universe: the train set plus the
// sampling state the stream generators draw from.
type Universe struct {
	cfg   UniverseConfig
	train *dataset.Dataset

	// userCum and itemCum are cumulative sampling weights over the generated
	// universe: users weighted by activity (profile size) and items by
	// popularity (+1 smoothing), so streams reproduce the rich-get-richer
	// shape of the underlying data.
	userCum []float64
	itemCum []float64
}

// NewUniverse generates the universe described by cfg. Generation is
// deterministic: the same configuration yields the byte-identical dataset.
func NewUniverse(cfg UniverseConfig) (*Universe, error) {
	cfg = cfg.withDefaults()
	if cfg.Users <= 0 || cfg.Items <= 1 {
		return nil, fmt.Errorf("simulate: universe needs Users > 0 and Items > 1, got %d × %d", cfg.Users, cfg.Items)
	}
	d, err := synth.Generate(synth.Config{
		Name:                  cfg.Name,
		NumUsers:              cfg.Users,
		NumItems:              cfg.Items,
		NumRatings:            cfg.Ratings,
		ZipfExponent:          cfg.ZipfExponent,
		MinRatingsPerUser:     cfg.MinRatingsPerUser,
		RatingLevels:          cfg.RatingLevels,
		LatentDim:             8,
		NoiseStd:              0.35,
		PopularityRatingBoost: 0.12,
		Seed:                  cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("simulate: generate universe: %w", err)
	}
	u := &Universe{cfg: cfg, train: d}
	u.userCum = make([]float64, d.NumUsers())
	acc := 0.0
	for i := range u.userCum {
		acc += float64(len(d.UserRatings(types.UserID(i))) + 1)
		u.userCum[i] = acc
	}
	u.itemCum = make([]float64, d.NumItems())
	acc = 0.0
	pop := d.PopularityVector()
	for i := range u.itemCum {
		acc += float64(pop[i] + 1)
		u.itemCum[i] = acc
	}
	return u, nil
}

// Config returns the (default-filled) configuration the universe was
// generated from.
func (u *Universe) Config() UniverseConfig { return u.cfg }

// Train returns the generated dataset, used as the train set of the system
// under test.
func (u *Universe) Train() *dataset.Dataset { return u.train }

// WriteRatings serializes the dataset as CSV, the canonical byte form used by
// the determinism tests (same seed → byte-identical output).
func (u *Universe) WriteRatings(w io.Writer) error {
	return dataset.WriteRatings(w, u.train)
}

// sampleCum draws an index from a cumulative weight vector by binary search.
func sampleCum(cum []float64, rng *rand.Rand) int {
	x := rng.Float64() * cum[len(cum)-1]
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// --- Event streams -------------------------------------------------------------

// EventStreamConfig shapes a deterministic interaction stream.
type EventStreamConfig struct {
	// NewUserRate is the probability an event comes from a user outside the
	// generated universe (interned on the fly by ingestion). The zero value
	// selects the default 0.05; pass a negative rate for a stream with no new
	// users at all (e.g. against engines that cannot score unseen users).
	NewUserRate float64
	// NewItemRate is the probability an event references a brand-new item.
	// Zero value selects the default 0.02; negative disables new items.
	NewItemRate float64
	// Seed drives the stream; the same seed always yields the byte-identical
	// event sequence.
	Seed int64
}

// EventStream deterministically generates interaction events against a
// universe: existing users are drawn proportionally to their activity,
// existing items proportionally to their popularity (the preferential-
// attachment shape ingestion sees in production), with a configurable share
// of brand-new users and items. Not safe for concurrent use; give each worker
// its own stream.
type EventStream struct {
	u        *Universe
	cfg      EventStreamConfig
	rng      *rand.Rand
	newUsers int
	newItems int
}

// EventStream builds a stream over the universe. Zero-value rates select the
// defaults documented on EventStreamConfig.
func (u *Universe) EventStream(cfg EventStreamConfig) *EventStream {
	switch {
	case cfg.NewUserRate == 0:
		cfg.NewUserRate = 0.05
	case cfg.NewUserRate < 0:
		cfg.NewUserRate = 0
	}
	switch {
	case cfg.NewItemRate == 0:
		cfg.NewItemRate = 0.02
	case cfg.NewItemRate < 0:
		cfg.NewItemRate = 0
	}
	return &EventStream{u: u, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Next generates the next event of the stream. Brand-new identifiers embed
// the stream seed, so concurrent streams with distinct seeds (e.g. one per
// load worker) introduce distinct users/items instead of aliasing onto each
// other's "new" keys.
func (s *EventStream) Next() serve.IngestEvent {
	var ev serve.IngestEvent
	if s.rng.Float64() < s.cfg.NewUserRate {
		ev.User = fmt.Sprintf("sim-user-%d-%07d", s.cfg.Seed, s.newUsers)
		s.newUsers++
	} else {
		idx := sampleCum(s.u.userCum, s.rng)
		ev.User = s.u.train.UserInterner().Key(int32(idx))
	}
	if s.rng.Float64() < s.cfg.NewItemRate {
		ev.Item = fmt.Sprintf("sim-item-%d-%07d", s.cfg.Seed, s.newItems)
		s.newItems++
	} else {
		idx := sampleCum(s.u.itemCum, s.rng)
		ev.Item = s.u.train.ItemInterner().Key(int32(idx))
	}
	levels := s.u.cfg.RatingLevels
	ev.Value = levels[s.rng.Intn(len(levels))]
	return ev
}

// NextBatch generates the next n events as one batch.
func (s *EventStream) NextBatch(n int) []serve.IngestEvent {
	batch := make([]serve.IngestEvent, n)
	for k := range batch {
		batch[k] = s.Next()
	}
	return batch
}

// --- Request streams -----------------------------------------------------------

// RequestStreamConfig shapes a deterministic recommendation-request stream.
type RequestStreamConfig struct {
	// ZipfExponent skews request popularity across users (default 1.0): a
	// handful of hot users dominate, which is what makes the serving layer's
	// LRU cache meaningful under load.
	ZipfExponent float64
	// Seed drives the stream deterministically.
	Seed int64
}

// RequestStream deterministically generates the external user keys of
// /recommend traffic: a seeded permutation of the universe's users ranked by
// a Zipf law, so some users are requested far more often than others. Not
// safe for concurrent use; give each worker its own stream.
type RequestStream struct {
	u   *Universe
	rng *rand.Rand
	cum []float64
	// perm decorrelates request rank from user identifier.
	perm []int
}

// RequestStream builds a stream over the universe's users.
func (u *Universe) RequestStream(cfg RequestStreamConfig) *RequestStream {
	if cfg.ZipfExponent <= 0 {
		cfg.ZipfExponent = 1.0
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := u.train.NumUsers()
	perm := rng.Perm(n)
	cum := make([]float64, n)
	acc := 0.0
	for rank := 0; rank < n; rank++ {
		acc += 1.0 / math.Pow(float64(rank+1), cfg.ZipfExponent)
		cum[rank] = acc
	}
	return &RequestStream{u: u, rng: rng, cum: cum, perm: perm}
}

// NextUser returns the external key of the next requested user.
func (r *RequestStream) NextUser() string {
	rank := sampleCum(r.cum, r.rng)
	return r.u.train.UserInterner().Key(int32(r.perm[rank]))
}

// NextUsers returns the next n requested users (one batch request's payload).
func (r *RequestStream) NextUsers(n int) []string {
	users := make([]string, n)
	for k := range users {
		users[k] = r.NextUser()
	}
	return users
}
