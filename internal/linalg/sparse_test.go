package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// randSparse builds a random nonsingular-ish n x n sparse matrix with the
// given density plus a guaranteed nonzero diagonal.
func randSparse(rng *rand.Rand, n int, density float64) []SparseCol {
	cols := make([]SparseCol, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			v := 0.0
			if i == j {
				v = 1 + rng.Float64()
			} else if rng.Float64() < density {
				v = 2*rng.Float64() - 1
			}
			if v != 0 {
				cols[j].Rows = append(cols[j].Rows, i)
				cols[j].Vals = append(cols[j].Vals, v)
			}
		}
	}
	return cols
}

func denseOf(n int, cols []SparseCol) *Matrix {
	m := NewMatrix(n, n)
	for j := range cols {
		for t, r := range cols[j].Rows {
			m.Set(r, j, cols[j].Vals[t])
		}
	}
	return m
}

func TestSparseLUSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		cols := randSparse(rng, n, 0.15)
		lu, err := FactorizeSparse(n, cols)
		if err != nil {
			t.Fatalf("trial %d: factorize: %v", trial, err)
		}
		dense := denseOf(n, cols)

		b := make([]float64, n)
		for i := range b {
			b[i] = 2*rng.Float64() - 1
		}
		want, err := SolveLinear(dense, b)
		if err != nil {
			t.Fatalf("trial %d: dense solve: %v", trial, err)
		}
		got := make([]float64, n)
		bc := append([]float64(nil), b...)
		lu.FTran(bc, got)
		if d := MaxAbsDiff(got, want); d > 1e-8 {
			t.Fatalf("trial %d: FTran off by %g", trial, d)
		}

		c := make([]float64, n)
		for i := range c {
			c[i] = 2*rng.Float64() - 1
		}
		wantT, err := SolveLinear(dense.T(), c)
		if err != nil {
			t.Fatalf("trial %d: dense transpose solve: %v", trial, err)
		}
		gotT := make([]float64, n)
		lu.BTran(c, gotT)
		if d := MaxAbsDiff(gotT, wantT); d > 1e-8 {
			t.Fatalf("trial %d: BTran off by %g", trial, d)
		}
	}
}

func TestSparseLUAliasedSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 25
	cols := randSparse(rng, n, 0.2)
	lu, err := FactorizeSparse(n, cols)
	if err != nil {
		t.Fatalf("factorize: %v", err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = 2*rng.Float64() - 1
	}
	sep := make([]float64, n)
	bc := append([]float64(nil), b...)
	lu.FTran(bc, sep)
	alias := append([]float64(nil), b...)
	lu.FTran(alias, alias)
	if d := MaxAbsDiff(sep, alias); d > 1e-12 {
		t.Fatalf("FTran aliasing changed the result by %g", d)
	}
	cv := make([]float64, n)
	for i := range cv {
		cv[i] = 2*rng.Float64() - 1
	}
	sepT := make([]float64, n)
	lu.BTran(cv, sepT)
	aliasT := append([]float64(nil), cv...)
	lu.BTran(aliasT, aliasT)
	if d := MaxAbsDiff(sepT, aliasT); d > 1e-12 {
		t.Fatalf("BTran aliasing changed the result by %g", d)
	}
}

func TestSparseLUSingular(t *testing.T) {
	// Column 2 = column 0 + column 1: rank deficient.
	cols := []SparseCol{
		{Rows: []int{0, 1}, Vals: []float64{1, 2}},
		{Rows: []int{1, 2}, Vals: []float64{1, 1}},
		{Rows: []int{0, 1, 2}, Vals: []float64{1, 3, 1}},
	}
	_, err := FactorizeSparse(3, cols)
	se, ok := err.(*SingularError)
	if !ok {
		t.Fatalf("want *SingularError, got %v", err)
	}
	if se.Col != 2 {
		// Any of the three dependent columns is an acceptable report, but
		// with ascending-count ordering the 3-entry column goes last.
		t.Fatalf("singular column = %d, want 2", se.Col)
	}
}

func TestSparseLUUnitBasis(t *testing.T) {
	// A permuted identity factorizes exactly and solves exactly.
	n := 6
	perm := []int{3, 1, 5, 0, 2, 4}
	cols := make([]SparseCol, n)
	for j := 0; j < n; j++ {
		cols[j] = SparseCol{Rows: []int{perm[j]}, Vals: []float64{1}}
	}
	lu, err := FactorizeSparse(n, cols)
	if err != nil {
		t.Fatalf("factorize: %v", err)
	}
	b := []float64{1, 2, 3, 4, 5, 6}
	w := make([]float64, n)
	bc := append([]float64(nil), b...)
	lu.FTran(bc, w)
	for j := 0; j < n; j++ {
		if math.Abs(w[j]-b[perm[j]]) > 0 {
			t.Fatalf("w[%d] = %v, want %v", j, w[j], b[perm[j]])
		}
	}
}

// TestFactorizeInPlaceAllocatesNothing is the arena contract of the revised
// simplex engine: it keeps one LU for its m-row basis and one for the polish
// clone's (m+1)-row basis, refactorizes each in place, and shares one
// Scratch between them. After the first factorization of each, a thousand
// alternating refactorizations must allocate nothing, and every solve must
// be bit-equal to a from-scratch FactorizeSparse.
func TestFactorizeInPlaceAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const m = 60
	big := randSparse(rng, m+1, 0.08)
	// The m x m basis is the (m+1) x (m+1) one without its last row and
	// column (the diagonal keeps both nonsingular).
	small := make([]SparseCol, m)
	for j := 0; j < m; j++ {
		for t, r := range big[j].Rows {
			if r < m {
				small[j].Rows = append(small[j].Rows, r)
				small[j].Vals = append(small[j].Vals, big[j].Vals[t])
			}
		}
	}
	sizes := [2]int{m, m + 1}
	bases := [2][]SparseCol{small, big}
	var want [2]*LU
	for i := range want {
		lu, err := FactorizeSparse(sizes[i], bases[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = lu
	}

	var lus [2]LU
	var sc Scratch
	for i := range lus {
		if err := lus[i].Factorize(sizes[i], bases[i], &sc); err != nil {
			t.Fatal(err)
		}
	}
	step := 0
	allocs := testing.AllocsPerRun(1000, func() {
		i := step % 2
		step++
		if err := lus[i].Factorize(sizes[i], bases[i], &sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("alternating in-place refactorizations allocate %v objects each, want 0", allocs)
	}

	for i := range lus {
		n := sizes[i]
		b := make([]float64, n)
		for k := range b {
			b[k] = 2*rng.Float64() - 1
		}
		got, ref := make([]float64, n), make([]float64, n)
		lus[i].FTran(append([]float64(nil), b...), got)
		want[i].FTran(append([]float64(nil), b...), ref)
		for k := range got {
			if math.Float64bits(got[k]) != math.Float64bits(ref[k]) {
				t.Fatalf("n=%d FTran[%d] = %v, from-scratch factorization gives %v", n, k, got[k], ref[k])
			}
		}
		lus[i].BTran(b, got)
		want[i].BTran(b, ref)
		for k := range got {
			if math.Float64bits(got[k]) != math.Float64bits(ref[k]) {
				t.Fatalf("n=%d BTran[%d] = %v, from-scratch factorization gives %v", n, k, got[k], ref[k])
			}
		}
	}
}
