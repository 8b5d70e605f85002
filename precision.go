package ganc

import (
	"ganc/internal/recommender"
	"ganc/internal/types"
)

// Bulk scoring has one tier (DESIGN.md §12): the latent-factor models (RSVD,
// PSVD, CofiRank) serve a candidate sweep from contiguous float32 factor
// blocks through the row kernel, built once when the model is trained or
// decoded; pointwise Score stays float64 and is the oracle the bulk scores
// are held to a documented tolerance against.

// BulkScorer32 is the float32 bulk scoring interface — the factor models'
// only bulk body (re-exported for custom scorer authors; see DESIGN.md §7 for
// the contract).
type BulkScorer32 = recommender.BulkScorer32

// ErrPrecisionRetired marks a snapshot naming the removed "int8" scoring
// tier; LoadEngine wraps it.
var ErrPrecisionRetired = types.ErrPrecisionRetired

// ScoringPrecision named a pipeline's bulk-scoring tier when there were two.
//
// Deprecated: there is one tier. The type, PrecisionF32 and
// WithScoringPrecision remain only because benchmark/inputs.go:129, their one
// caller, may not change in the PR that retired the choice; ROADMAP item 9(e)
// is the benchmark-only PR that deletes the call and the three names
// together.
type ScoringPrecision uint8

// PrecisionF32 is the value benchmark/inputs.go passes.
//
// Deprecated: see ScoringPrecision.
const PrecisionF32 ScoringPrecision = 1

// WithScoringPrecision sets nothing: every pipeline serves the float32 row
// kernel.
//
// Deprecated: see ScoringPrecision.
func WithScoringPrecision(ScoringPrecision) PipelineOption {
	return func(*pipelineConfig) {}
}
