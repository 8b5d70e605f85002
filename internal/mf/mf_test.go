package mf

import (
	"math"
	"math/rand"
	"testing"

	"ganc/internal/dataset"
	"ganc/internal/synth"
	"ganc/internal/types"
)

// learnableSplit generates a small but learnable synthetic dataset and splits
// it, shared by the RSVD and PSVD tests.
func learnableSplit(t *testing.T) *dataset.Split {
	t.Helper()
	cfg := synth.ML100K(0.25)
	d, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d.SplitByUser(0.8, rand.New(rand.NewSource(5)))
}

func TestRSVDConfigValidate(t *testing.T) {
	good := DefaultRSVDConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*RSVDConfig){
		func(c *RSVDConfig) { c.Factors = 0 },
		func(c *RSVDConfig) { c.LearningRate = 0 },
		func(c *RSVDConfig) { c.Regularization = -1 },
		func(c *RSVDConfig) { c.Epochs = 0 },
		func(c *RSVDConfig) { c.InitStd = 0 },
	}
	for k, mutate := range bad {
		cfg := DefaultRSVDConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", k)
		}
	}
}

func TestTrainRSVDRejectsEmptyData(t *testing.T) {
	b := dataset.NewBuilder("empty-ish", 1)
	b.AddIDs(0, 0, 3)
	d := b.Build()
	empty := d.SubsetUsers(nil)
	if _, err := TrainRSVD(empty, DefaultRSVDConfig()); err == nil {
		t.Fatal("training on empty data did not error")
	}
}

func TestRSVDLearnsBetterThanGlobalMean(t *testing.T) {
	sp := learnableSplit(t)
	cfg := RSVDConfig{
		Factors: 16, LearningRate: 0.01, Regularization: 0.05,
		Epochs: 25, UseBiases: true, InitStd: 0.1, Seed: 3,
	}
	m, err := TrainRSVD(sp.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Baseline: predicting the global train mean for every test rating.
	mean := sp.Train.MeanRating()
	baseSum := 0.0
	for _, r := range sp.Test.Ratings() {
		e := r.Value - mean
		baseSum += e * e
	}
	baseRMSE := math.Sqrt(baseSum / float64(sp.Test.NumRatings()))
	modelRMSE := m.RMSE(sp.Test)
	if modelRMSE >= baseRMSE {
		t.Fatalf("RSVD test RMSE %.4f not better than global-mean RMSE %.4f", modelRMSE, baseRMSE)
	}
	trainRMSE := m.RMSE(sp.Train)
	if trainRMSE >= baseRMSE {
		t.Fatalf("RSVD train RMSE %.4f not better than global-mean baseline %.4f", trainRMSE, baseRMSE)
	}
}

func TestRSVDDeterministicWithSeed(t *testing.T) {
	sp := learnableSplit(t)
	cfg := RSVDConfig{Factors: 8, LearningRate: 0.02, Regularization: 0.05, Epochs: 3, UseBiases: true, InitStd: 0.1, Seed: 11}
	a, err := TrainRSVD(sp.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainRSVD(sp.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 5; u++ {
		for i := 0; i < 5; i++ {
			if a.Score(types.UserID(u), types.ItemID(i)) != b.Score(types.UserID(u), types.ItemID(i)) {
				t.Fatal("same seed produced different models")
			}
		}
	}
}

func TestRSVDScoreOutOfRangeFallsBackToMean(t *testing.T) {
	sp := learnableSplit(t)
	cfg := RSVDConfig{Factors: 4, LearningRate: 0.02, Regularization: 0.05, Epochs: 2, UseBiases: true, InitStd: 0.1, Seed: 1}
	m, err := TrainRSVD(sp.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Score(types.UserID(1_000_000), 0); got != sp.Train.MeanRating() {
		t.Fatalf("unknown user score = %v, want global mean %v", got, sp.Train.MeanRating())
	}
}

func TestRSVDNonNegativeVariantClampsFactors(t *testing.T) {
	sp := learnableSplit(t)
	cfg := RSVDConfig{Factors: 8, LearningRate: 0.02, Regularization: 0.05, Epochs: 3, UseBiases: false, NonNegative: true, InitStd: 0.1, Seed: 2}
	m, err := TrainRSVD(sp.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "RSVDN" {
		t.Fatalf("name = %s, want RSVDN", m.Name())
	}
	for _, row := range m.userF {
		for _, v := range row {
			if v < 0 {
				t.Fatal("non-negative variant produced negative user factor")
			}
		}
	}
	for _, row := range m.itemF {
		for _, v := range row {
			if v < 0 {
				t.Fatal("non-negative variant produced negative item factor")
			}
		}
	}
}

func TestRSVDPredictionsWithinSaneRange(t *testing.T) {
	sp := learnableSplit(t)
	cfg := RSVDConfig{Factors: 8, LearningRate: 0.02, Regularization: 0.1, Epochs: 10, UseBiases: true, InitStd: 0.05, Seed: 4}
	m, err := TrainRSVD(sp.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 20 && u < sp.Train.NumUsers(); u++ {
		for i := 0; i < 20 && i < sp.Train.NumItems(); i++ {
			s := m.Score(types.UserID(u), types.ItemID(i))
			if s < -5 || s > 12 || math.IsNaN(s) {
				t.Fatalf("prediction %v far outside the rating scale", s)
			}
		}
	}
}

func TestRSVDMAEAndRMSEEmptyDataset(t *testing.T) {
	sp := learnableSplit(t)
	cfg := RSVDConfig{Factors: 4, LearningRate: 0.02, Regularization: 0.05, Epochs: 1, UseBiases: true, InitStd: 0.1, Seed: 1}
	m, err := TrainRSVD(sp.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	empty := sp.Train.SubsetUsers(nil)
	if m.RMSE(empty) != 0 || m.MAE(empty) != 0 {
		t.Fatal("error metrics on an empty dataset should be 0")
	}
	if m.MAE(sp.Test) <= 0 {
		t.Fatal("MAE on test data should be positive")
	}
	if m.Factors() != 4 {
		t.Fatalf("Factors = %d", m.Factors())
	}
}

func TestTrainPSVDValidation(t *testing.T) {
	sp := learnableSplit(t)
	if _, err := TrainPSVD(sp.Train, PSVDConfig{Factors: 0}); err == nil {
		t.Fatal("Factors=0 did not error")
	}
	empty := sp.Train.SubsetUsers(nil)
	if _, err := TrainPSVD(empty, PSVDConfig{Factors: 100, PowerIterations: 2, Seed: 1}); err == nil {
		t.Fatal("empty dataset did not error")
	}
}

func TestPSVDRankIsCappedByMatrixSize(t *testing.T) {
	b := dataset.NewBuilder("tiny", 8)
	b.AddIDs(0, 0, 5)
	b.AddIDs(0, 1, 3)
	b.AddIDs(1, 0, 4)
	b.AddIDs(1, 2, 2)
	b.AddIDs(2, 1, 1)
	d := b.Build()
	m, err := TrainPSVD(d, PSVDConfig{Factors: 100, PowerIterations: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Factors() > 3 {
		t.Fatalf("rank %d exceeds min(|U|,|I|)=3", m.Factors())
	}
	if m.Name() != "PSVD100" {
		t.Fatalf("name should reflect the requested rank, got %s", m.Name())
	}
}

func TestPSVDScoresReconstructObservedPreferences(t *testing.T) {
	// Construct a block-structured dataset: users 0-4 love items 0-4, users
	// 5-9 love items 5-9 (and rate nothing else). PureSVD at rank 2 must
	// score within-block items higher than cross-block ones.
	b := dataset.NewBuilder("block", 64)
	for u := 0; u < 10; u++ {
		for i := 0; i < 10; i++ {
			sameBlock := (u < 5) == (i < 5)
			if sameBlock && (u+i)%2 == 0 {
				b.AddIDs(types.UserID(u), types.ItemID(i), 5)
			}
		}
	}
	d := b.Build()
	m, err := TrainPSVD(d, PSVDConfig{Factors: 2, PowerIterations: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// User 0 is in the first block: unseen item 3 (same block) should beat
	// unseen item 7 (other block).
	same := m.Score(0, 3)
	cross := m.Score(0, 7)
	if same <= cross {
		t.Fatalf("PSVD did not recover block structure: same-block %.4f <= cross-block %.4f", same, cross)
	}
}

func TestPSVDScoreOutOfRange(t *testing.T) {
	sp := learnableSplit(t)
	m, err := TrainPSVD(sp.Train, PSVDConfig{Factors: 5, PowerIterations: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Score(types.UserID(9_999_999), 0) != 0 || m.Score(0, types.ItemID(9_999_999)) != 0 {
		t.Fatal("out-of-range identifiers should score 0")
	}
}

func TestPSVDSingularValuesDescending(t *testing.T) {
	sp := learnableSplit(t)
	m, err := TrainPSVD(sp.Train, PSVDConfig{Factors: 8, PowerIterations: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sv := m.singulars
	if len(sv) != m.Factors() {
		t.Fatalf("singular value count %d != rank %d", len(sv), m.Factors())
	}
	for k := 1; k < len(sv); k++ {
		if sv[k] > sv[k-1]+1e-9 {
			t.Fatalf("singular values not descending: %v", sv)
		}
	}
}

func TestPSVDRankingBeatsRandomOnHeldOutItems(t *testing.T) {
	// A coarse end-to-end sanity check: averaged over every relevant held-out
	// (user, item) pair, PSVD should place the relevant item in a better
	// percentile of the catalog than the 50% a random ranker would achieve.
	// The low-rank configuration (10 factors) is used because, as the paper
	// notes, fewer factors align PureSVD more strongly with the popularity
	// signal and give it its accuracy advantage.
	sp := learnableSplit(t)
	m, err := TrainPSVD(sp.Train, PSVDConfig{Factors: 10, PowerIterations: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	relevant := dataset.RelevantTestItems(sp.Test, 4.0)
	sumPercentile, total := 0.0, 0
	for u := 0; u < sp.Train.NumUsers(); u++ {
		uid := types.UserID(u)
		items := relevant[uid]
		if len(items) == 0 {
			continue
		}
		for _, target := range items {
			better, checked := 0, 0
			targetScore := m.Score(uid, target)
			for i := 0; i < sp.Train.NumItems(); i += 3 { // deterministic catalog subsample
				checked++
				if m.Score(uid, types.ItemID(i)) > targetScore {
					better++
				}
			}
			sumPercentile += float64(better) / float64(checked)
			total++
		}
	}
	if total == 0 {
		t.Skip("no relevant test items at this scale")
	}
	meanPercentile := sumPercentile / float64(total)
	if meanPercentile >= 0.45 {
		t.Fatalf("PSVD places relevant held-out items at mean catalog percentile %.3f; want < 0.45 (0.5 = random)", meanPercentile)
	}
}
