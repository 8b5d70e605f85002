package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ganc/internal/mat"
)

func TestNewSparseBasicAccess(t *testing.T) {
	s := NewSparse(3, 4, []Entry{
		{0, 1, 2.0},
		{1, 3, -1.0},
		{2, 0, 4.0},
	})
	if s.Rows() != 3 || s.Cols() != 4 || len(s.values) != 3 {
		t.Fatalf("shape/nnz wrong: %dx%d nnz=%d", s.Rows(), s.Cols(), len(s.values))
	}
	if s.At(0, 1) != 2.0 || s.At(1, 3) != -1.0 || s.At(2, 0) != 4.0 {
		t.Fatal("stored values wrong")
	}
	if s.At(0, 0) != 0 || s.At(2, 3) != 0 {
		t.Fatal("missing entries should read as zero")
	}
}

func TestNewSparseSumsDuplicates(t *testing.T) {
	s := NewSparse(2, 2, []Entry{
		{0, 0, 1.5},
		{0, 0, 2.5},
		{1, 1, 1},
	})
	if s.At(0, 0) != 4.0 {
		t.Fatalf("duplicates not summed: %v", s.At(0, 0))
	}
	if len(s.values) != 2 {
		t.Fatalf("%d non-zeros after merge, want 2", len(s.values))
	}
}

func TestNewSparsePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range entry did not panic")
		}
	}()
	NewSparse(2, 2, []Entry{{2, 0, 1}})
}

func TestSparseMulDenseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows, cols, k := 6, 4, 3
	var entries []Entry
	dense := mat.NewDense(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() < 0.5 {
				v := rng.NormFloat64()
				entries = append(entries, Entry{r, c, v})
				dense.Set(r, c, v)
			}
		}
	}
	s := NewSparse(rows, cols, entries)
	b := mat.NewDense(cols, k)
	for r := 0; r < cols; r++ {
		for c := 0; c < k; c++ {
			b.Set(r, c, rng.NormFloat64())
		}
	}
	if !mat.Equal(s.MulDense(b), mat.Mul(dense, b), 1e-12) {
		t.Fatal("MulDense disagrees with dense product")
	}
	bb := mat.NewDense(rows, k)
	for r := 0; r < rows; r++ {
		for c := 0; c < k; c++ {
			bb.Set(r, c, rng.NormFloat64())
		}
	}
	if !mat.Equal(s.TMulDense(bb), mat.Mul(dense.T(), bb), 1e-12) {
		t.Fatal("TMulDense disagrees with dense product")
	}
}

func TestQRProducesOrthonormalColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := mat.NewDense(10, 4)
	for r := 0; r < 10; r++ {
		for c := 0; c < 4; c++ {
			a.Set(r, c, rng.NormFloat64())
		}
	}
	q := QR(a, rng)
	for i := 0; i < 4; i++ {
		ci := q.Col(i)
		if math.Abs(mat.Norm2(ci)-1) > 1e-9 {
			t.Fatalf("column %d not unit length: %v", i, mat.Norm2(ci))
		}
		for j := i + 1; j < 4; j++ {
			if d := math.Abs(mat.Dot(ci, q.Col(j))); d > 1e-9 {
				t.Fatalf("columns %d,%d not orthogonal: %v", i, j, d)
			}
		}
	}
}

func TestQRHandlesRankDeficientInput(t *testing.T) {
	// Two identical columns: QR must still return orthonormal columns.
	a := mat.NewDense(5, 2)
	for r := 0; r < 5; r++ {
		a.Set(r, 0, float64(r+1))
		a.Set(r, 1, float64(r+1))
	}
	q := QR(a, rand.New(rand.NewSource(2)))
	if math.Abs(mat.Norm2(q.Col(1))-1) > 1e-9 {
		t.Fatal("degenerate column not replaced with a unit vector")
	}
	if d := math.Abs(mat.Dot(q.Col(0), q.Col(1))); d > 1e-9 {
		t.Fatalf("degenerate column not orthogonalized: %v", d)
	}
}

func TestJacobiEigenDiagonalMatrix(t *testing.T) {
	a := mat.NewDenseFrom([][]float64{
		{3, 0, 0},
		{0, 1, 0},
		{0, 0, 2},
	})
	vals, _ := JacobiEigen(a, 32, 1e-14)
	want := []float64{3, 2, 1}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-10 {
			t.Fatalf("eigvals = %v, want %v", vals, want)
		}
	}
}

func TestJacobiEigenKnownSymmetricMatrix(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1 with eigenvectors (1,1)/√2, (1,-1)/√2.
	a := mat.NewDenseFrom([][]float64{
		{2, 1},
		{1, 2},
	})
	vals, v := JacobiEigen(a, 32, 1e-14)
	if math.Abs(vals[0]-3) > 1e-10 || math.Abs(vals[1]-1) > 1e-10 {
		t.Fatalf("eigvals = %v", vals)
	}
	// Check A·v0 = 3·v0.
	v0 := v.Col(0)
	av0 := []float64{mat.Dot(a.Row(0), v0), mat.Dot(a.Row(1), v0)}
	for i := range v0 {
		if math.Abs(av0[i]-3*v0[i]) > 1e-9 {
			t.Fatalf("eigenvector residual too large: %v vs %v", av0, v0)
		}
	}
}

func TestJacobiEigenPanicsOnNonSquare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-square input did not panic")
		}
	}()
	JacobiEigen(mat.NewDense(2, 3), 10, 1e-10)
}

func TestJacobiEigenReconstructionProperty(t *testing.T) {
	// Property: for random symmetric matrices, V·diag(λ)·Vᵀ ≈ A.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 4
		a := mat.NewDense(k, k)
		for i := 0; i < k; i++ {
			for j := i; j < k; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		vals, v := JacobiEigen(a, 64, 1e-14)
		// Reconstruct.
		lam := mat.NewDense(k, k)
		for i := 0; i < k; i++ {
			lam.Set(i, i, vals[i])
		}
		recon := mat.Mul(mat.Mul(v, lam), v.T())
		return mat.Equal(a, recon, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTruncatedSVDRecoversLowRankMatrix(t *testing.T) {
	// Build an exactly rank-2 matrix and verify rank-2 SVD reconstructs it.
	rng := rand.New(rand.NewSource(7))
	rows, cols := 20, 15
	u1, u2 := randVec(rng, rows), randVec(rng, rows)
	v1, v2 := randVec(rng, cols), randVec(rng, cols)
	var entries []Entry
	dense := mat.NewDense(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			val := 5*u1[r]*v1[c] + 2*u2[r]*v2[c]
			dense.Set(r, c, val)
			entries = append(entries, Entry{r, c, val})
		}
	}
	s := NewSparse(rows, cols, entries)
	res, err := TruncatedSVD(s, 2, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	// U·diag(S)·Vᵀ
	us := res.U.Clone()
	for j, sigma := range res.S {
		col := us.Col(j)
		mat.Scale(col, sigma)
		us.SetCol(j, col)
	}
	recon := mat.Mul(us, res.V.T())
	if !mat.Equal(dense, recon, 1e-6) {
		diff := 0.0
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				d := dense.At(r, c) - recon.At(r, c)
				diff += d * d
			}
		}
		t.Fatalf("rank-2 reconstruction error %g too large", math.Sqrt(diff))
	}
	if res.S[0] < res.S[1] {
		t.Fatalf("singular values not descending: %v", res.S)
	}
}

func TestTruncatedSVDSingularValuesOfKnownMatrix(t *testing.T) {
	// diag(3, 2, 1) padded to 5x4: singular values are 3, 2, 1.
	entries := []Entry{{0, 0, 3}, {1, 1, 2}, {2, 2, 1}}
	s := NewSparse(5, 4, entries)
	res, err := TruncatedSVD(s, 3, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, 1}
	for i, w := range want {
		if math.Abs(res.S[i]-w) > 1e-6 {
			t.Fatalf("singular values %v, want %v", res.S, want)
		}
	}
}

func TestTruncatedSVDOrthonormalFactors(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rows, cols := 30, 12
	var entries []Entry
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() < 0.3 {
				entries = append(entries, Entry{r, c, rng.Float64() * 5})
			}
		}
	}
	s := NewSparse(rows, cols, entries)
	res, err := TruncatedSVD(s, 4, 2, 99)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if math.Abs(mat.Norm2(res.U.Col(i))-1) > 1e-6 {
			t.Fatalf("U column %d not unit", i)
		}
		if res.S[i] > 1e-9 && math.Abs(mat.Norm2(res.V.Col(i))-1) > 1e-6 {
			t.Fatalf("V column %d not unit", i)
		}
		for j := i + 1; j < 4; j++ {
			if math.Abs(mat.Dot(res.U.Col(i), res.U.Col(j))) > 1e-6 {
				t.Fatalf("U columns %d,%d not orthogonal", i, j)
			}
		}
	}
}

func TestTruncatedSVDErrors(t *testing.T) {
	s := NewSparse(3, 3, []Entry{{0, 0, 1}})
	if _, err := TruncatedSVD(s, 0, 1, 1); err == nil {
		t.Fatal("rank 0 did not error")
	}
	if _, err := TruncatedSVD(s, 10, 1, 1); err == nil {
		t.Fatal("rank larger than dimensions did not error")
	}
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}
