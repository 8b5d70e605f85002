package ganc

import (
	"ganc/internal/recommender"
	"ganc/internal/types"
)

// ScoringPrecision selects the arithmetic tier of a pipeline's bulk scoring
// hot path (see DESIGN.md §12). Pointwise Score calls always stay float64;
// the tier only governs the candidate-sweep kernels.
type ScoringPrecision = types.ScoringPrecision

// Scoring precision tiers.
const (
	// PrecisionF64 is the default exact tier: bulk scores are bit-identical
	// to pointwise Score.
	PrecisionF64 = types.PrecisionF64
	// PrecisionF32 serves bulk scores from contiguous float32 factor blocks
	// through unrolled SIMD-friendly kernels; scores match the float64
	// reference to the documented tolerance.
	PrecisionF32 = types.PrecisionF32
)

// ErrPrecisionRetired marks a flag or snapshot naming the removed "int8"
// scoring tier; ParseScoringPrecision and LoadEngine wrap it.
var ErrPrecisionRetired = types.ErrPrecisionRetired

// ParseScoringPrecision resolves the CLI/config spellings "f64" and "f32"
// (the empty string means f64, so older snapshots and configs keep loading;
// the retired "int8" answers ErrPrecisionRetired).
func ParseScoringPrecision(s string) (ScoringPrecision, error) {
	return types.ParseScoringPrecision(s)
}

// BulkScorer32 is the reduced-precision bulk scoring interface the float32
// tier serves through (re-exported for custom scorer authors; see
// DESIGN.md §7 for the contract).
type BulkScorer32 = recommender.BulkScorer32

// precisionSetter is implemented by the base models whose bulk path can be
// switched to a reduced-precision tier (RSVD, PSVD, CofiModel).
type precisionSetter interface {
	recommender.PrecisionScorer
	SetPrecision(types.ScoringPrecision)
}

// applyScoringPrecision pushes a pipeline's tier down to its base scorer.
// Only a non-default tier is pushed: a scorer whose precision was set
// directly (SetPrecision before WithBase) keeps its tier when the pipeline
// option is left at the default. A scorer already at the tier is not written
// to — an ingestion rebuild reassembles around a model that is being served.
// Scorers without a reduced-precision path (Pop, ItemKNN, custom scorers)
// are left untouched and keep serving exact float64.
func applyScoringPrecision(scorer Scorer, p ScoringPrecision) {
	if ps, ok := scorer.(precisionSetter); ok && p != PrecisionF64 && ps.ScoringPrecision() != p {
		ps.SetPrecision(p)
	}
}
