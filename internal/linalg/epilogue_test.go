package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// epilogueValues are the float32 dots the epilogue tests draw from: NaN, both
// zeros, both infinities, the smallest subnormal, the largest finite value,
// values whose sum with a base rounds, and ordinary scores.
func epilogueValues() []float32 {
	return []float32{
		float32(math.NaN()), 0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, math.MaxFloat32, -math.MaxFloat32,
		1, -1, 0.1, 1e-8, 3.4999998, 16777217, -2.5,
	}
}

// epilogueBases are the float64 bases (the mean, the user's bias added): both
// zeros — a −0 base keeps a −0 dot a −0 only while no bias is added — NaN,
// the infinities and ordinary means.
func epilogueBases() []float64 {
	return []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 3.5361, -0.75, 1e300}
}

// TestEpiloguesMatchPortable holds the VEX bodies of AddBase32 and
// AddBaseBias32 to their Go loops, compared as bits: every length 0 to two
// bound-pass chunks and five (the four-lane body, then the one-lane tail),
// the scores and the biases each starting 0–7 elements past a 32-byte
// boundary, every base, dots and biases drawn from hostile values — NaN,
// ±Inf, ±0 and subnormals among them — and nothing written outside the
// scores.
func TestEpiloguesMatchPortable(t *testing.T) {
	if !useAVX {
		t.Skip("this CPU runs no AVX: the score epilogues are their Go loops")
	}
	rng := rand.New(rand.NewSource(41))
	vals := epilogueValues()
	biasVals := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), -0.125, 0.3, 1e-320}
	const sentinel = float32(-12345)
	for _, base := range epilogueBases() {
		for n := 0; n <= 2*headChunk+5; n++ {
			for off := 0; off < 8; off++ {
				for trial := 0; trial < 2; trial++ {
					dots := make([]float32, n)
					biasBuf, blo := misaligned(n, (off+trial*3)%8, 0.0)
					bias := biasBuf[blo : blo+n]
					for k := range dots {
						dots[k] = vals[rng.Intn(len(vals))]
					}
					for k := range bias {
						bias[k] = biasVals[rng.Intn(len(biasVals))]
					}
					for _, form := range []struct {
						name     string
						kernel   func(out []float32)
						portable func(out []float32)
					}{
						{"AddBase32", func(out []float32) { AddBase32(out, base) }, func(out []float32) { addBase32Generic(out, base) }},
						{"AddBaseBias32", func(out []float32) { AddBaseBias32(out, base, bias) }, func(out []float32) { addBaseBias32Generic(out, base, bias) }},
					} {
						buf, lo := misaligned(n, off, sentinel)
						got := buf[lo : lo+n]
						copy(got, dots)
						form.kernel(got)
						want := append([]float32(nil), dots...)
						form.portable(want)
						for k := range want {
							if math.Float32bits(got[k]) != math.Float32bits(want[k]) {
								t.Fatalf("%s base %v, %d scores at offset %d: out[%d] = %v (%#x) from dot %v, Go loop %v (%#x)",
									form.name, base, n, off, k, got[k], math.Float32bits(got[k]), dots[k], want[k], math.Float32bits(want[k]))
							}
						}
						if !untouched(buf, lo, lo+n, sentinel) {
							t.Fatalf("%s: %d scores at offset %d: wrote outside them", form.name, n, off)
						}
					}
				}
			}
		}
	}
}

// TestAddBaseKeepsNegativeZero pins why the no-bias form exists: a −0 dot
// over a −0 base stays −0 through AddBase32, and a zero bias would make it
// +0.
func TestAddBaseKeepsNegativeZero(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	out := []float32{negZero, negZero, negZero}
	AddBase32(out, math.Copysign(0, -1))
	for k, v := range out {
		if !math.Signbit(float64(v)) || v != 0 {
			t.Fatalf("AddBase32: out[%d] = %v, want −0", k, v)
		}
	}
	AddBaseBias32(out, math.Copysign(0, -1), []float64{0, 0, 0})
	for k, v := range out {
		if math.Signbit(float64(v)) {
			t.Fatalf("AddBaseBias32 with a +0 bias: out[%d] = −0, want +0", k)
		}
	}
}

// TestAddBaseBiasRefusesShortBias: a bias column shorter than the scores
// panics before any score is written.
func TestAddBaseBiasRefusesShortBias(t *testing.T) {
	out := []float32{1, 2, 3}
	defer func() {
		if recover() == nil {
			t.Fatal("AddBaseBias32 with a short bias did not panic")
		}
		if out[0] != 1 || out[1] != 2 || out[2] != 3 {
			t.Fatalf("scores %v written before the refusal", out)
		}
	}()
	AddBaseBias32(out, 1, []float64{1, 2})
}

func BenchmarkEpilogues(b *testing.B) {
	out, bias := epilogueBench()
	b.Run("AddBaseBias32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			AddBaseBias32(out, 3.5, bias)
		}
	})
	b.Run("portable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			addBaseBias32Generic(out, 3.5, bias)
		}
	})
	b.Run("AddBase32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			AddBase32(out, 3.5)
		}
	})
	b.Run("AddBase32-portable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			addBase32Generic(out, 3.5)
		}
	})
}

// epilogueBench is a turn's epilogue on the benchmark universe: 3 988 dots
// and as many item biases.
func epilogueBench() ([]float32, []float64) {
	rng := rand.New(rand.NewSource(44))
	out := make([]float32, 3988)
	bias := make([]float64, len(out))
	for k := range out {
		out[k] = float32(rng.NormFloat64())
		bias[k] = rng.NormFloat64() / 4
	}
	return out, bias
}
