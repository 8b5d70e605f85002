package types

import (
	"errors"
	"fmt"
)

// ErrPrecisionRetired marks the spelling of a scoring tier this build no
// longer carries: "int8" (symmetric per-row quantization) was removed, so a
// snapshot that names it is refused instead of silently served at another
// tier. Retrain and save again.
var ErrPrecisionRetired = errors.New("types: scoring precision tier retired")

// CheckSnapshotPrecision vets the precision string of a snapshot written when
// bulk scoring had a tier to choose. There is one tier now — float32 factor
// blocks under the row kernel, built from the float64 rows at load — so "",
// "f64" and "f32" all load the same way; "int8" answers ErrPrecisionRetired.
func CheckSnapshotPrecision(s string) error {
	switch s {
	case "", "f64", "f32":
		return nil
	case "int8":
		return fmt.Errorf("%w: %q", ErrPrecisionRetired, s)
	default:
		return fmt.Errorf("types: unknown scoring precision %q", s)
	}
}
