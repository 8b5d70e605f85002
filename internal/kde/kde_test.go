package kde

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewRejectsEmptySample(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("empty sample did not error")
	}
}

func TestSilvermanBandwidthPositiveAndShrinksWithN(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	small := make([]float64, 50)
	large := make([]float64, 5000)
	for i := range small {
		small[i] = rng.NormFloat64()
	}
	for i := range large {
		large[i] = rng.NormFloat64()
	}
	hs, hl := Silverman(small), Silverman(large)
	if hs <= 0 || hl <= 0 {
		t.Fatalf("non-positive bandwidths: %v %v", hs, hl)
	}
	if hl >= hs {
		t.Fatalf("bandwidth should shrink with sample size: n=50 → %v, n=5000 → %v", hs, hl)
	}
}

func TestSilvermanDegenerateSamples(t *testing.T) {
	if h := Silverman([]float64{0.3}); h <= 0 {
		t.Fatal("single-point sample should still give positive bandwidth")
	}
	if h := Silverman([]float64{0.5, 0.5, 0.5, 0.5}); h <= 0 {
		t.Fatal("constant sample should still give positive bandwidth")
	}
}

func TestSampleReproducesDistributionRoughly(t *testing.T) {
	// Data drawn from a bimodal mixture; samples from the KDE should land in
	// both modes with roughly the right proportions.
	rng := rand.New(rand.NewSource(4))
	data := make([]float64, 400)
	for i := range data {
		if i%4 == 0 { // 25% in the upper mode
			data[i] = 0.8 + 0.03*rng.NormFloat64()
		} else {
			data[i] = 0.2 + 0.03*rng.NormFloat64()
		}
	}
	k, err := New(data)
	if err != nil {
		t.Fatal(err)
	}
	samples := k.Sample(4000, rand.New(rand.NewSource(5)))
	upper := 0
	for _, s := range samples {
		if s > 0.5 {
			upper++
		}
	}
	frac := float64(upper) / float64(len(samples))
	if frac < 0.15 || frac > 0.35 {
		t.Fatalf("upper-mode fraction %v, want ≈ 0.25", frac)
	}

	// The first two moments, exactly: the mixture has the data's mean and the
	// data's variance plus h² at Silverman's h. A small sample makes h² about
	// a sixth of the variance, so sampling at any other bandwidth shows.
	data = data[:0]
	for i := 0; i < 50; i++ {
		data = append(data, 0.5+0.1*rng.NormFloat64())
	}
	if k, err = New(data); err != nil {
		t.Fatal(err)
	}
	h := Silverman(data)
	dataMean, dataVar := moments(data)
	mean, variance := moments(k.Sample(50000, rand.New(rand.NewSource(6))))
	if math.Abs(mean-dataMean) > 0.002 {
		t.Fatalf("sample mean %v, want the data's %v", mean, dataMean)
	}
	if want := dataVar + h*h; math.Abs(variance-want) > 0.2*h*h {
		t.Fatalf("sample variance %v, want %v (data %v + h² %v)", variance, want, dataVar, h*h)
	}
}

// moments returns the mean and the population variance of xs.
func moments(xs []float64) (mean, variance float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	return mean, variance / float64(len(xs))
}

func TestSampleEdgeCases(t *testing.T) {
	k := &KDE{data: []float64{0.5}, bandwidth: 0.1}
	if got := k.Sample(0, nil); got != nil {
		t.Fatal("n=0 should return nil")
	}
	if got := k.Sample(-3, nil); got != nil {
		t.Fatal("negative n should return nil")
	}
	if got := k.Sample(5, nil); len(got) != 5 {
		t.Fatal("nil rng should still produce samples")
	}
}

func TestSampleClampedStaysInRange(t *testing.T) {
	data := []float64{0.01, 0.02, 0.99, 0.98}
	k := &KDE{data: data, bandwidth: 0.2}
	out := k.SampleClamped(500, 0, 1, rand.New(rand.NewSource(6)))
	for _, v := range out {
		if v < 0 || v > 1 {
			t.Fatalf("clamped sample %v escaped [0,1]", v)
		}
	}
}

func TestSamplingIsDeterministicGivenRNG(t *testing.T) {
	data := []float64{0.1, 0.5, 0.9}
	k := &KDE{data: data, bandwidth: 0.05}
	a := k.Sample(20, rand.New(rand.NewSource(7)))
	b := k.Sample(20, rand.New(rand.NewSource(7)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same RNG seed produced different samples")
		}
	}
}
