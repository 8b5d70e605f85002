// Package simtest is the shared fixture layer for test code that stands a
// seeded synthetic universe and a trained serving pipeline up: the tier-2
// scenario suites and the cluster tests (it imports testing, so shipped
// binaries stay clear of it).
// The universe shapes themselves live in internal/simulate (fixture.go);
// this package adds the testing conveniences and the standard
// pipeline-under-test parameters, so the "what do we train and serve in
// tests" decision is made exactly once.
//
// internal/simulate's own unit tests cannot import this package (it imports
// simulate, and Go rejects the cycle for in-package tests); they call the
// simulate fixture constructors directly.
package simtest

import (
	"testing"

	"ganc/internal/simulate"
)

// Standard pipeline-under-test parameters: the cheapest snapshot-compatible
// assembly, so scenario and benchmark time goes to lifecycle coverage rather
// than training.
const (
	// StandardBase is the registry base the fixtures train.
	StandardBase = "Pop"
	// StandardTheta is the θ estimator code (TF-IDF: deterministic and cheap
	// at scale), in the cmd-line letter form ParsePreferenceModel accepts.
	StandardTheta = "T"
	// StandardTopN is the serving list size.
	StandardTopN = 10
	// StandardSeed drives training and θ estimation.
	StandardSeed int64 = 7
)

// Tiny returns the unit-test universe configuration.
func Tiny(seed int64) simulate.UniverseConfig { return simulate.TinyConfig(seed) }

// E2E returns the tier-2 scenario universe configuration.
func E2E(seed int64) simulate.UniverseConfig { return simulate.E2EConfig(seed) }

// Standard returns the standard benchmark universe configuration.
func Standard(seed int64) simulate.UniverseConfig { return simulate.StandardConfig(seed) }

// MustUniverse generates a universe, failing the test on error.
func MustUniverse(tb testing.TB, cfg simulate.UniverseConfig) *simulate.Universe {
	tb.Helper()
	u, err := simulate.NewUniverse(cfg)
	if err != nil {
		tb.Fatalf("simtest: generating universe: %v", err)
	}
	return u
}
