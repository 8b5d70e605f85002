package synth

import (
	"fmt"
	"strings"
)

// Presets calibrated to the paper's Table II. Netflix and ML-10M are scaled
// down (users, items and ratings divided by roughly the same factor) so the
// full experiment suite runs on a single machine; density, rating scale, the
// long-tail share and the per-user minimum τ — the properties the paper's
// conclusions depend on — are preserved. DESIGN.md §4 documents this
// substitution.

// Scale multiplies the size of every preset. 1.0 reproduces the calibrated
// (already scaled for the large datasets) defaults; tests use smaller values.
type Scale float64

// wholeStars and halfStars are the admissible rating values of the MovieLens
// datasets; MovieTweetings ratings are mapped onto [1,5] as in the paper.
var (
	wholeStars = []float64{1, 2, 3, 4, 5}
	halfStars  = []float64{0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4, 4.5, 5}
)

func scaled(n int, s Scale) int {
	v := int(float64(n) * float64(s))
	if v < 8 {
		v = 8
	}
	return v
}

// ML100K mirrors MovieLens-100K: 943 users, 1682 items, 100K ratings,
// density ≈ 6.3%, L% ≈ 67, τ = 20.
func ML100K(s Scale) Config {
	return Config{
		Name:                  "ML-100K",
		NumUsers:              scaled(943, s),
		NumItems:              scaled(1682, s),
		NumRatings:            scaled(100_000, s),
		ZipfExponent:          0.95,
		MinRatingsPerUser:     20,
		RatingLevels:          wholeStars,
		LatentDim:             8,
		NoiseStd:              0.35,
		PopularityRatingBoost: 0.12,
		Seed:                  100,
	}
}

// ML1M mirrors MovieLens-1M: 6040 users, 3706 items, 1M ratings, density ≈
// 4.5%, L% ≈ 68, τ = 20. The default is generated at 1/4 scale; pass Scale(4)
// for the full calibrated size.
func ML1M(s Scale) Config {
	return Config{
		Name:                  "ML-1M",
		NumUsers:              scaled(1510, s),
		NumItems:              scaled(927, s),
		NumRatings:            scaled(62_500, s),
		ZipfExponent:          1.0,
		MinRatingsPerUser:     20,
		RatingLevels:          wholeStars,
		LatentDim:             10,
		NoiseStd:              0.35,
		PopularityRatingBoost: 0.12,
		Seed:                  101,
	}
}

// ML10M mirrors MovieLens-10M at reduced scale: density ≈ 1.3%, half-star
// ratings, L% ≈ 84, τ = 20.
func ML10M(s Scale) Config {
	return Config{
		Name:                  "ML-10M",
		NumUsers:              scaled(3494, s),
		NumItems:              scaled(1068, s),
		NumRatings:            scaled(50_000, s),
		ZipfExponent:          1.25,
		MinRatingsPerUser:     20,
		RatingLevels:          halfStars,
		LatentDim:             10,
		NoiseStd:              0.4,
		PopularityRatingBoost: 0.12,
		Seed:                  102,
	}
}

// MT200K mirrors MovieTweetings-200K: extremely sparse (density ≈ 0.16%),
// τ = 5, nearly half the users have fewer than 10 ratings, L% ≈ 87.
func MT200K(s Scale) Config {
	return Config{
		Name:                  "MT-200K",
		NumUsers:              scaled(1992, s),
		NumItems:              scaled(3466, s),
		NumRatings:            scaled(43_126, s),
		ZipfExponent:          1.35,
		MinRatingsPerUser:     5,
		RatingLevels:          wholeStars,
		LatentDim:             8,
		NoiseStd:              0.5,
		PopularityRatingBoost: 0.15,
		Seed:                  103,
	}
}

// NetflixSample mirrors the Netflix prize data at heavily reduced scale:
// density ≈ 1.2%, τ effectively 1 (no minimum), L% ≈ 88.
func NetflixSample(s Scale) Config {
	return Config{
		Name:                  "Netflix",
		NumUsers:              scaled(4595, s),
		NumItems:              scaled(1777, s),
		NumRatings:            scaled(98_754, s),
		ZipfExponent:          1.3,
		MinRatingsPerUser:     3,
		RatingLevels:          wholeStars,
		LatentDim:             12,
		NoiseStd:              0.45,
		PopularityRatingBoost: 0.15,
		Seed:                  104,
	}
}

// presets is the one table of the paper's evaluation datasets, in the order
// of Table II: each calibrated configuration (which carries the name) with its
// per-user train ratio κ — 0.5 for the MovieLens datasets, 0.8 for MT-200K and
// for the Netflix stand-in (the paper uses the official probe split, which
// holds out a small fraction; 0.8 keeps the same sparse-test character).
var presets = []struct {
	config func(Scale) Config
	kappa  float64
}{
	{ML100K, 0.5},
	{ML1M, 0.5},
	{ML10M, 0.5},
	{MT200K, 0.8},
	{NetflixSample, 0.8},
}

// PresetNames lists the preset names in Table II order.
func PresetNames() []string {
	names := make([]string, len(presets))
	for k, p := range presets {
		names[k] = p.config(1).Name
	}
	return names
}

// Preset resolves a preset name to its configuration at scale s and its train
// ratio κ.
func Preset(name string, s Scale) (Config, float64, error) {
	for _, p := range presets {
		if cfg := p.config(s); cfg.Name == name {
			return cfg, p.kappa, nil
		}
	}
	return Config{}, 0, fmt.Errorf("synth: unknown preset %q (known: %s)", name, strings.Join(PresetNames(), ", "))
}
