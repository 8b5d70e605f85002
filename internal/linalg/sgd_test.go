package linalg

// The SGD update against its Go twin, bit for bit, NaN payloads included:
// the body runs the twin's operations with the twin's operands first, so
// not even the payload of a NaN may differ. The one exception is a -race
// build (sameSGDBits).

import (
	"math"
	"math/rand"
	"testing"
)

// sgdValues are the float64 factors and step scalars the SGD update's tests
// draw from: NaNs with different payloads and signs (one signaling), both
// zeros, both infinities, subnormals, the largest finite values, and ordinary
// factors and steps.
func sgdValues() []float64 {
	return []float64{
		math.NaN(), math.Float64frombits(0x7ff8_0000_0000_0abc), math.Float64frombits(0xfff8_0000_0000_0123),
		math.Float64frombits(0x7ff0_0000_0000_0001),
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310, math.MaxFloat64, -math.MaxFloat64,
		1, -1, 0.1, -0.3, 3.5, 1e-8, 0.03, 0.05,
	}
}

// sgdStepValues are the error, learning rate and regularization an SGD
// step is given: mostly ordinary ones, and each of sgdValues' hostile ones.
func sgdStepValues() []float64 {
	return append([]float64{0.03, 0.05, 1.25, -0.7, 0.6, -2.1}, sgdValues()...)
}

// checkSGDUpdate runs SGDUpdate and its twin on copies of the rows p and q,
// each starting off elements past a 64-byte boundary (q at a different
// offset), and fails unless every factor of both rows has the twin's bits
// and nothing outside the rows was written.
func checkSGDUpdate(t *testing.T, p, q []float64, off int, err, lr, reg float64, nonNegative bool) {
	t.Helper()
	const sentinel = -12345.0
	n := len(p)
	pBuf, plo := misaligned(n, off, sentinel)
	qBuf, qlo := misaligned(n, (off+3)%8, sentinel)
	pu, qi := pBuf[plo:plo+n], qBuf[qlo:qlo+n]
	copy(pu, p)
	copy(qi, q)
	wantP, wantQ := append([]float64(nil), p...), append([]float64(nil), q...)
	SGDUpdate(pu, qi, err, lr, reg, nonNegative)
	sgdUpdateGeneric(wantP, wantQ, err, lr, reg, nonNegative)
	for f := range wantP {
		for _, row := range []struct {
			name      string
			got, want float64
			was, peer float64
		}{
			{"pu", pu[f], wantP[f], p[f], q[f]},
			{"qi", qi[f], wantQ[f], q[f], p[f]},
		} {
			if !sameSGDBits(row.got, row.want) {
				t.Fatalf("%d factors at offset %d, err %v lr %v reg %v nonNegative %v: %s[%d] from %v (peer %v) = %v (%#x), Go loop %v (%#x)",
					n, off, err, lr, reg, nonNegative, row.name, f, row.was, row.peer,
					row.got, math.Float64bits(row.got), row.want, math.Float64bits(row.want))
			}
		}
	}
	if !untouched(pBuf, plo, plo+n, sentinel) || !untouched(qBuf, qlo, qlo+n, sentinel) {
		t.Fatalf("%d factors at offset %d: SGDUpdate wrote outside its rows", n, off)
	}
}

// sameSGDBits reports whether got has want's bits. A -race build compiles
// the twin with other operand orders (its SSE2 instructions take other
// destinations; go tool objdump shows them), so of two NaN operands it may
// keep the other one's payload. There any NaN matches any NaN, and every
// other value must still carry the twin's bits.
func sameSGDBits(got, want float64) bool {
	if raceDetectorEnabled && math.IsNaN(got) && math.IsNaN(want) {
		return true
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// TestSGDUpdateMatchesPortable holds the AVX-512 body of SGDUpdate to its Go
// loop, compared as bits: every length 0–69 (whole 8-lane blocks, then a
// short one under its mask), each row starting 0–7 elements past a 64-byte
// boundary, factors drawn from hostile values — NaNs of several payloads,
// ±Inf, ±0 and subnormals among them — in both rows, the same values among
// the error, learning rate and regularization, the clamp on and off, and
// nothing written outside the rows.
func TestSGDUpdateMatchesPortable(t *testing.T) {
	if !useAVX512 {
		t.Skip("this CPU runs no AVX-512: the SGD update is its Go loop")
	}
	rng := rand.New(rand.NewSource(53))
	vals, steps := sgdValues(), sgdStepValues()
	draw := func(from []float64) float64 {
		if rng.Intn(3) == 0 {
			return rng.NormFloat64()
		}
		return from[rng.Intn(len(from))]
	}
	for n := 0; n < 70; n++ {
		for off := 0; off < 8; off++ {
			for _, nonNegative := range []bool{false, true} {
				for trial := 0; trial < 4; trial++ {
					p, q := make([]float64, n), make([]float64, n)
					for f := range p {
						p[f], q[f] = draw(vals), draw(vals)
					}
					// The first trial steps with ordinary scalars, so
					// every lane's arithmetic is the hostile factors'.
					err, lr, reg := 0.6, 0.03, 0.05
					if trial > 0 {
						err, lr, reg = draw(steps), draw(steps), draw(steps)
					}
					checkSGDUpdate(t, p, q, off, err, lr, reg, nonNegative)
				}
			}
		}
	}
}

// TestSGDUpdateRefusesShortRow: a qi shorter than pu panics before any
// factor is written.
func TestSGDUpdateRefusesShortRow(t *testing.T) {
	pu, qi := []float64{1, 2, 3}, []float64{4, 5}
	defer func() {
		if recover() == nil {
			t.Fatal("SGDUpdate with a short qi did not panic")
		}
		if pu[0] != 1 || pu[1] != 2 || pu[2] != 3 || qi[0] != 4 || qi[1] != 5 {
			t.Fatalf("rows %v, %v written before the refusal", pu, qi)
		}
	}()
	SGDUpdate(pu, qi, 1, 0.1, 0.1, false)
}

// FuzzSGDUpdateMatchesPortable holds the dispatched SGDUpdate to its Go
// loop over drawn shapes and values: a row length of 0–69 factors, the rows
// starting 0–7 elements past a 64-byte boundary, the clamp on or off, and
// each factor and step scalar read from raw — one of sgdValues for an even
// selector byte, the float64 whose bits are the next eight bytes for an odd
// one — so NaNs of any payload, ±Inf, −0 and subnormal lanes meet. Every
// factor carries the loop's bits, and nothing outside the rows is written.
func FuzzSGDUpdateMatchesPortable(f *testing.F) {
	f.Add(uint8(40), uint8(3), []byte{2, 6, 1, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1, 10, 0, 3, 0x80, 0, 0, 0, 0, 0, 0, 0, 5})
	f.Add(uint8(9), uint8(0), []byte{1, 0, 0, 0, 0, 0, 0, 0, 1, 8, 0x80, 0x80, 4})
	f.Add(uint8(69), uint8(7), []byte{})
	vals := sgdValues()
	f.Fuzz(func(t *testing.T, n, off uint8, raw []byte) {
		at := 0
		next := func() byte {
			b := raw[at%len(raw)]
			at++
			return b
		}
		draw := func() float64 {
			if len(raw) == 0 {
				return 0.5
			}
			b := next()
			if b&1 == 0 {
				return vals[int(b>>1)%len(vals)]
			}
			var bits uint64
			for k := 0; k < 8; k++ {
				bits = bits<<8 | uint64(next())
			}
			return math.Float64frombits(bits)
		}
		dims := int(n) % 70
		p, q := make([]float64, dims), make([]float64, dims)
		for k := range p {
			p[k], q[k] = draw(), draw()
		}
		err, lr, reg := draw(), draw(), draw()
		checkSGDUpdate(t, p, q, int(off)%8, err, lr, reg, n&0x80 != 0)
	})
}
