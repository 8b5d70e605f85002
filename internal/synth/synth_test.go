package synth

import (
	"reflect"
	"strings"
	"testing"

	"ganc/internal/types"
)

func TestConfigValidate(t *testing.T) {
	good := ML100K(0.1)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid preset failed validation: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no users", func(c *Config) { c.NumUsers = 0 }},
		{"one item", func(c *Config) { c.NumItems = 1 }},
		{"too few ratings", func(c *Config) { c.NumRatings = c.NumUsers - 1 }},
		{"zero zipf", func(c *Config) { c.ZipfExponent = 0 }},
		{"zero tau", func(c *Config) { c.MinRatingsPerUser = 0 }},
		{"no levels", func(c *Config) { c.RatingLevels = nil }},
		{"zero latent", func(c *Config) { c.LatentDim = 0 }},
	}
	for _, tc := range cases {
		cfg := ML100K(0.1)
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	cfg := ML100K(0.05)
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumRatings() != b.NumRatings() {
		t.Fatalf("same seed produced different sizes: %d vs %d", a.NumRatings(), b.NumRatings())
	}
	for k := range a.Ratings() {
		if a.Rating(k) != b.Rating(k) {
			t.Fatalf("rating %d differs between runs: %v vs %v", k, a.Rating(k), b.Rating(k))
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	cfg1 := ML100K(0.05)
	cfg2 := ML100K(0.05)
	cfg2.Seed = 999
	a, _ := Generate(cfg1)
	b, _ := Generate(cfg2)
	same := a.NumRatings() == b.NumRatings()
	if same {
		diff := false
		for k := range a.Ratings() {
			if a.Rating(k) != b.Rating(k) {
				diff = true
				break
			}
		}
		if !diff {
			t.Fatal("different seeds produced identical datasets")
		}
	}
}

func TestGenerateRespectsMinRatingsPerUser(t *testing.T) {
	cfg := MT200K(0.1)
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < d.NumUsers(); u++ {
		n := len(d.UserRatings(types0(u)))
		if n > 0 && n < cfg.MinRatingsPerUser {
			// A user can occasionally land below τ when the rejection
			// sampler exhausts attempts on a tiny item space, but not by
			// more than a couple of ratings. Treat a large shortfall as a
			// generator bug.
			if n < cfg.MinRatingsPerUser/2 {
				t.Fatalf("user %d has only %d ratings (τ=%d)", u, n, cfg.MinRatingsPerUser)
			}
		}
	}
}

func TestGenerateRatingValuesAreOnScale(t *testing.T) {
	cfg := ML10M(0.1)
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	valid := make(map[float64]bool, len(cfg.RatingLevels))
	for _, l := range cfg.RatingLevels {
		valid[l] = true
	}
	for _, r := range d.Ratings() {
		if !valid[r.Value] {
			t.Fatalf("rating value %v is not one of the configured levels", r.Value)
		}
	}
}

func TestGeneratePopularityIsSkewed(t *testing.T) {
	// Use the full preset scale: shrinking users and items while keeping the
	// per-user profile size constant flattens the popularity distribution,
	// which is exactly the distortion this test is meant to catch.
	cfg := ML1M(1)
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats := d.ComputeStats()
	// The Pareto cut should classify well over half the catalog as long-tail,
	// as in every dataset in Table II (67%–88%).
	if stats.LongTailPct < 50 {
		t.Fatalf("long-tail share %.1f%% too small; popularity not skewed enough", stats.LongTailPct)
	}
	// And the most popular item should dwarf the median item.
	pops := d.PopularityVector()
	max := 0
	for _, p := range pops {
		if p > max {
			max = p
		}
	}
	if max < 10 {
		t.Fatalf("max popularity %d implausibly low", max)
	}
}

func TestGenerateDensityRoughlyMatchesTarget(t *testing.T) {
	cfg := ML100K(0.2)
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	target := float64(cfg.NumRatings) / (float64(cfg.NumUsers) * float64(cfg.NumItems))
	got := d.Density()
	if got < target*0.5 || got > target*2.0 {
		t.Fatalf("density %.4f too far from target %.4f", got, target)
	}
}

func TestPresetsCoverPaperDatasets(t *testing.T) {
	want := []string{"ML-100K", "ML-1M", "ML-10M", "MT-200K", "Netflix"}
	if got := PresetNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("PresetNames() = %v, want the Table II order %v", got, want)
	}
	for _, name := range want {
		cfg, _, err := Preset(name, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Name != name {
			t.Errorf("preset %s resolved to the configuration named %s", name, cfg.Name)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", name, err)
		}
	}
}

func TestKappaMatchesPaperProtocol(t *testing.T) {
	for name, want := range map[string]float64{"ML-100K": 0.5, "ML-1M": 0.5, "ML-10M": 0.5, "MT-200K": 0.8, "Netflix": 0.8} {
		if _, kappa, err := Preset(name, 1); err != nil || kappa != want {
			t.Errorf("%s: kappa %v (err %v), want %v", name, kappa, err, want)
		}
	}
	_, _, err := Preset("unknown", 1)
	if err == nil || !strings.Contains(err.Error(), "ML-100K, ML-1M, ML-10M, MT-200K, Netflix") {
		t.Fatalf("unknown preset: err %v, want one listing the known names", err)
	}
}

func TestGeneratedDataIsLearnable(t *testing.T) {
	// Sanity check for the latent-factor rating model: the per-item mean
	// ratings should not all coincide, otherwise CF has nothing to learn.
	cfg := ML100K(0.1)
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var means []float64
	for i := 0; i < d.NumItems(); i++ {
		idxs := d.ItemRatings(types1(i))
		if len(idxs) < 3 {
			continue
		}
		s := 0.0
		for _, idx := range idxs {
			s += d.Rating(idx).Value
		}
		means = append(means, s/float64(len(idxs)))
	}
	if len(means) < 10 {
		t.Skip("not enough frequently rated items at this scale")
	}
	lo, hi := means[0], means[0]
	for _, m := range means {
		if m < lo {
			lo = m
		}
		if m > hi {
			hi = m
		}
	}
	if hi-lo < 0.5 {
		t.Fatalf("item mean ratings span only %.2f stars; rating signal too weak", hi-lo)
	}
}

func types0(u int) types.UserID { return types.UserID(u) }
func types1(i int) types.ItemID { return types.ItemID(i) }
