package types

import (
	"errors"
	"fmt"
)

// ScoringPrecision selects the numeric tier a model's bulk scoring hot path
// runs at. The float64 tier is the precision reference: pointwise Score and
// bulk ScoreUser agree bit-for-bit. The float32 tier trades precision for raw
// speed (contiguous float32 blocks with unrolled kernels); its bulk scores
// agree with the float64 reference only up to a documented tolerance
// (DESIGN.md §12), which is why it is opt-in per pipeline rather than the
// default.
type ScoringPrecision uint8

const (
	// PrecisionF64 is the exact float64 reference path (the default).
	PrecisionF64 ScoringPrecision = iota
	// PrecisionF32 scores from contiguous float32 factor blocks through
	// unrolled 8-wide kernels.
	PrecisionF32
)

// ErrPrecisionRetired marks the spelling of a scoring tier this build no
// longer carries: "int8" (symmetric per-row quantization) was removed, so a
// flag or a snapshot that names it is refused instead of silently served at
// another tier. Re-save the snapshot at f32 or f64.
var ErrPrecisionRetired = errors.New("types: scoring precision tier retired")

// String returns the stable textual form used by flags, snapshots and logs.
func (p ScoringPrecision) String() string {
	switch p {
	case PrecisionF64:
		return "f64"
	case PrecisionF32:
		return "f32"
	default:
		return fmt.Sprintf("precision(%d)", uint8(p))
	}
}

// ParseScoringPrecision parses the textual form produced by String. The
// empty string maps to PrecisionF64 so zero-valued snapshot fields from
// pre-precision format versions load as the exact tier; "int8" answers
// ErrPrecisionRetired.
func ParseScoringPrecision(s string) (ScoringPrecision, error) {
	switch s {
	case "", "f64":
		return PrecisionF64, nil
	case "f32":
		return PrecisionF32, nil
	case "int8":
		return PrecisionF64, fmt.Errorf("%w: %q (want f64 or f32)", ErrPrecisionRetired, s)
	default:
		return PrecisionF64, fmt.Errorf("types: unknown scoring precision %q (want f64 or f32)", s)
	}
}
