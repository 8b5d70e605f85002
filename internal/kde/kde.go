// Package kde implements Gaussian kernel density estimation over a
// one-dimensional sample, with Silverman's rule-of-thumb bandwidth, and
// sampling from the estimated density.
//
// GANC's OSLG optimization (Algorithm 1, line 2) approximates the probability
// density of the user long-tail preferences θ with a KDE and draws the sample
// of users it processes sequentially from that density. The paper cites the
// Sheather–Jones bandwidth selector; this package uses Silverman's
// rule-of-thumb (the standard plug-in approximation), which gives
// statistically indistinguishable samples for the smooth, unimodal θ
// distributions involved (DESIGN.md §4).
package kde

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// KDE is a fitted Gaussian kernel density estimator.
type KDE struct {
	data      []float64
	bandwidth float64
}

// Silverman returns the rule-of-thumb bandwidth h = 0.9·min(σ, IQR/1.34)·n^(−1/5).
// It falls back to a small positive constant when the sample is degenerate
// (constant, or fewer than two points), so the estimator never divides by
// zero.
func Silverman(data []float64) float64 {
	n := len(data)
	if n < 2 {
		return 0.05
	}
	mean := 0.0
	for _, x := range data {
		mean += x
	}
	mean /= float64(n)
	varSum := 0.0
	for _, x := range data {
		d := x - mean
		varSum += d * d
	}
	sigma := math.Sqrt(varSum / float64(n))

	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	iqr := quantileSorted(sorted, 0.75) - quantileSorted(sorted, 0.25)

	spread := sigma
	if iqr > 0 && iqr/1.34 < spread {
		spread = iqr / 1.34
	}
	if spread <= 0 {
		return 0.05
	}
	return 0.9 * spread * math.Pow(float64(n), -0.2)
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// New fits a KDE to data at Silverman's bandwidth. New copies the data.
func New(data []float64) (*KDE, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("kde: cannot fit a density to an empty sample")
	}
	cp := append([]float64(nil), data...)
	return &KDE{data: cp, bandwidth: Silverman(data)}, nil
}

// Sample draws n points from the estimated density: pick a data point
// uniformly, then add Gaussian noise with the bandwidth as standard
// deviation. This is exact sampling from the KDE mixture.
func (k *KDE) Sample(n int, rng *rand.Rand) []float64 {
	if n <= 0 {
		return nil
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	out := make([]float64, n)
	for i := range out {
		xi := k.data[rng.Intn(len(k.data))]
		out[i] = xi + rng.NormFloat64()*k.bandwidth
	}
	return out
}

// SampleClamped draws n points and clamps them to [lo, hi]. GANC uses it with
// [0,1] because θ lives on the unit interval.
func (k *KDE) SampleClamped(n int, lo, hi float64, rng *rand.Rand) []float64 {
	out := k.Sample(n, rng)
	for i, v := range out {
		if v < lo {
			out[i] = lo
		} else if v > hi {
			out[i] = hi
		}
	}
	return out
}
