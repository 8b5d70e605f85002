package simulate

// Canonical universe fixtures. Every layer that needs a seeded synthetic
// universe — the simulate unit tests, the tier-2 scenario suites, the
// cmd/loadgen drill runner — used to declare its own copy of these
// configurations; they live here once so a size change (or a new standard
// shape) propagates everywhere. internal/simtest wraps them with
// testing.TB conveniences for test code.

// TinyConfig is the unit-test universe: big enough for non-degenerate
// streams and caches, small enough to generate in microseconds.
func TinyConfig(seed int64) UniverseConfig {
	return UniverseConfig{Users: 60, Items: 40, Ratings: 900, Seed: seed}
}

// E2EConfig is the tier-2 scenario universe: large enough to exercise real
// eviction/coalescing behavior but small enough for -race throughput.
func E2EConfig(seed int64) UniverseConfig {
	return UniverseConfig{Users: 400, Items: 300, Ratings: 8000, Seed: seed}
}

// StandardConfig is the full-size serving universe (100k users × 10k items,
// 1M ratings): cmd/loadgen's flag defaults, and the shape benchmark/ scales
// its workloads from.
func StandardConfig(seed int64) UniverseConfig {
	return UniverseConfig{
		Name:         "loadgen",
		Users:        100_000,
		Items:        10_000,
		Ratings:      1_000_000,
		ZipfExponent: 1.1,
		Seed:         seed,
	}
}
