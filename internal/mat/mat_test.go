package mat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDensePanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDense(0, 3) did not panic")
		}
	}()
	NewDense(0, 3)
}

func TestDenseAtSetRoundTrip(t *testing.T) {
	m := NewDense(3, 4)
	m.Set(1, 2, 7.5)
	m.Set(2, 3, -1.25)
	if m.At(1, 2) != 7.5 || m.At(2, 3) != -1.25 {
		t.Fatalf("At/Set round trip failed: %v %v", m.At(1, 2), m.At(2, 3))
	}
	if m.At(0, 0) != 0 {
		t.Fatal("unset element not zero")
	}
}

func TestNewDenseFromAndRowColAccess(t *testing.T) {
	m := NewDenseFrom([][]float64{
		{1, 2, 3},
		{4, 5, 6},
	})
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape %dx%d", m.Rows(), m.Cols())
	}
	row := m.Row(1)
	if row[0] != 4 || row[2] != 6 {
		t.Fatalf("Row(1) = %v", row)
	}
	col := m.Col(2)
	if col[0] != 3 || col[1] != 6 {
		t.Fatalf("Col(2) = %v", col)
	}
	// Row returns a live view.
	row[0] = 40
	if m.At(1, 0) != 40 {
		t.Fatal("Row did not return a mutable view")
	}
}

func TestNewDenseFromPanicsOnRaggedRows(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged input did not panic")
		}
	}()
	NewDenseFrom([][]float64{{1, 2}, {3}})
}

func TestSetColAndClone(t *testing.T) {
	m := NewDense(3, 2)
	m.SetCol(1, []float64{1, 2, 3})
	c := m.Clone()
	c.Set(0, 1, 99)
	if m.At(0, 1) != 1 {
		t.Fatal("Clone shares storage with original")
	}
	if c.At(2, 1) != 3 {
		t.Fatal("Clone did not copy values")
	}
}

func TestTranspose(t *testing.T) {
	m := NewDenseFrom([][]float64{
		{1, 2, 3},
		{4, 5, 6},
	})
	mt := m.T()
	if mt.Rows() != 3 || mt.Cols() != 2 {
		t.Fatalf("T shape %dx%d", mt.Rows(), mt.Cols())
	}
	for r := 0; r < m.Rows(); r++ {
		for c := 0; c < m.Cols(); c++ {
			if m.At(r, c) != mt.At(c, r) {
				t.Fatalf("transpose mismatch at (%d,%d)", r, c)
			}
		}
	}
}

func TestMulAgainstKnownProduct(t *testing.T) {
	a := NewDenseFrom([][]float64{
		{1, 2},
		{3, 4},
	})
	b := NewDenseFrom([][]float64{
		{5, 6},
		{7, 8},
	})
	got := Mul(a, b)
	want := NewDenseFrom([][]float64{
		{19, 22},
		{43, 50},
	})
	if !Equal(got, want, 1e-12) {
		t.Fatalf("Mul = %+v", got)
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	Mul(NewDense(2, 3), NewDense(2, 3))
}

func TestMulAssociativityProperty(t *testing.T) {
	// Property: (A·B)·v == A·(B·v) for random small matrices.
	f := func(seedVals [9]float64, vecVals [3]float64) bool {
		a := NewDense(3, 3)
		b := NewDense(3, 3)
		for i := 0; i < 9; i++ {
			// Keep values bounded to avoid overflow noise in the comparison.
			val := math.Mod(seedVals[i], 10)
			a.Set(i/3, i%3, val)
			b.Set(i%3, i/3, -val/2+1)
		}
		v := NewDenseFrom([][]float64{{math.Mod(vecVals[0], 5)}, {math.Mod(vecVals[1], 5)}, {math.Mod(vecVals[2], 5)}})
		return Equal(Mul(Mul(a, b), v), Mul(a, Mul(b, v)), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDotAndNorm(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
	if math.Abs(Norm2([]float64{3, 4})-5) > 1e-12 {
		t.Fatal("Norm2 wrong")
	}
}

func TestAXPYAndScaleVector(t *testing.T) {
	y := []float64{1, 1, 1}
	AXPY(2, []float64{1, 2, 3}, y)
	if y[0] != 3 || y[1] != 5 || y[2] != 7 {
		t.Fatalf("AXPY = %v", y)
	}
	Scale(y, 0.5)
	if y[2] != 3.5 {
		t.Fatalf("Scale = %v", y)
	}
}

func TestStatsHelpers(t *testing.T) {
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(v) != 5 {
		t.Fatalf("Mean = %v", Mean(v))
	}
	if math.Abs(Variance(v)-4) > 1e-12 {
		t.Fatalf("Variance = %v", Variance(v))
	}
	if math.Abs(StdDev(v)-2) > 1e-12 {
		t.Fatalf("StdDev = %v", StdDev(v))
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("degenerate stats not zero")
	}
}

func TestMinMaxAndNormalize01(t *testing.T) {
	v := []float64{3, -1, 7, 0}
	min, max := MinMax(v)
	if min != -1 || max != 7 {
		t.Fatalf("MinMax = %v, %v", min, max)
	}
	Normalize01(v)
	if v[1] != 0 || v[2] != 1 {
		t.Fatalf("Normalize01 = %v", v)
	}
	for _, x := range v {
		if x < 0 || x > 1 {
			t.Fatalf("Normalize01 out of range: %v", v)
		}
	}
	constant := []float64{5, 5, 5}
	Normalize01(constant)
	for _, x := range constant {
		if x != 0 {
			t.Fatalf("constant vector should normalize to zeros, got %v", constant)
		}
	}
}

func TestNormalize01Property(t *testing.T) {
	// Property: output is always within [0,1] and preserves the ordering of
	// the input values.
	f := func(in []float64) bool {
		if len(in) < 2 {
			return true
		}
		v := make([]float64, len(in))
		for i, x := range in {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			v[i] = math.Mod(x, 1e6)
		}
		orig := make([]float64, len(v))
		copy(orig, v)
		Normalize01(v)
		for i := range v {
			if v[i] < 0 || v[i] > 1 {
				return false
			}
			for j := range v {
				if orig[i] < orig[j] && v[i] > v[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp wrong")
	}
}

func TestEqualShapesAndTolerance(t *testing.T) {
	a := NewDense(2, 2)
	b := NewDense(2, 3)
	if Equal(a, b, 1) {
		t.Fatal("matrices of different shapes reported equal")
	}
	c := NewDense(2, 2)
	c.Set(0, 0, 1e-9)
	if !Equal(a, c, 1e-6) {
		t.Fatal("within-tolerance difference reported unequal")
	}
	if Equal(a, c, 1e-12) {
		t.Fatal("out-of-tolerance difference reported equal")
	}
}
