package ganc

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
)

func TestPublicAPIItemKNNAndRankingMetrics(t *testing.T) {
	data, err := GenerateML100K(0.12)
	if err != nil {
		t.Fatal(err)
	}
	split := SplitByUser(data, 0.8, rand.New(rand.NewSource(23)))

	cfg := DefaultItemKNNConfig()
	cfg.Neighbors = 20
	m, err := TrainItemKNN(split.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := NewBaseEngine(m, split.Train, 5).RecommendAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(split, 0)
	rep := ev.Evaluate(m.Name(), recs, 5)
	if rep.Coverage <= 0 {
		t.Fatal("item-KNN produced no coverage at all")
	}
	// The ranking-accuracy metrics must be internally consistent: the
	// F-measure P·R/(P+R) lies between min(P, R)/2 and min(P, R).
	p, r, f := rep.Precision, rep.Recall, rep.FMeasure
	if p <= 0 || p > 1 || r <= 0 || r > 1 {
		t.Fatalf("ranking metrics out of range: precision=%v recall=%v", p, r)
	}
	if f < min(p, r)/2-1e-9 || f > min(p, r)+1e-9 {
		t.Fatalf("F-measure %v outside [min/2, min] of precision %v and recall %v", f, p, r)
	}
}

func TestPublicAPIModelPersistence(t *testing.T) {
	data, err := GenerateML100K(0.1)
	if err != nil {
		t.Fatal(err)
	}
	split := SplitByUser(data, 0.8, rand.New(rand.NewSource(29)))
	cfg := DefaultRSVDConfig()
	cfg.Factors = 6
	cfg.Epochs = 2
	m, err := TrainRSVD(split.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadRSVD(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Score(0, 0) != m.Score(0, 0) {
		t.Fatal("reloaded model scores differ")
	}

	p, err := TrainPSVD(split.Train, PSVDConfig{Factors: 5, PowerIterations: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPSVD(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIGridSearch(t *testing.T) {
	data, err := GenerateML100K(0.1)
	if err != nil {
		t.Fatal(err)
	}
	split := SplitByUser(data, 0.8, rand.New(rand.NewSource(31)))
	base := DefaultRSVDConfig()
	base.Epochs = 2
	grid := RSVDGrid{Factors: []int{4}, Regularization: []float64{0.05, 0.1}, LearningRate: []float64{0.02}}
	results, err := CrossValidateRSVD(split.Train, base, grid, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	best, err := BestRSVDConfig(results)
	if err != nil {
		t.Fatal(err)
	}
	if best.MeanRMSE <= 0 {
		t.Fatal("best RMSE not positive")
	}
}
