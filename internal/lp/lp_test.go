package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func mustOptimal(t *testing.T, p *Problem) *Result {
	t.Helper()
	res, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v, want optimal", res.Status)
	}
	return res
}

func TestSimpleMaximize(t *testing.T) {
	// max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> x=4, y=0, obj=12.
	p := NewProblem(Maximize)
	x := p.AddVar(3, "x")
	y := p.AddVar(2, "y")
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 4)
	p.AddConstraint([]Term{{x, 1}, {y, 3}}, LE, 6)
	res := mustOptimal(t, p)
	if !near(res.Objective, 12, 1e-7) {
		t.Fatalf("objective = %v, want 12", res.Objective)
	}
	if !near(res.X[x], 4, 1e-7) || !near(res.X[y], 0, 1e-7) {
		t.Fatalf("x = %v, want [4 0]", res.X)
	}
}

func TestSimpleMinimizeWithGE(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 10, x <= 6 -> x=6, y=4, obj=24.
	p := NewProblem(Minimize)
	x := p.AddVar(2, "x")
	y := p.AddVar(3, "y")
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, GE, 10)
	p.AddConstraint([]Term{{x, 1}}, LE, 6)
	res := mustOptimal(t, p)
	if !near(res.Objective, 24, 1e-7) {
		t.Fatalf("objective = %v, want 24", res.Objective)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// max x + y s.t. x + y = 5, x <= 2 -> obj 5.
	p := NewProblem(Maximize)
	x := p.AddVar(1, "x")
	y := p.AddVar(1, "y")
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, EQ, 5)
	p.AddConstraint([]Term{{x, 1}}, LE, 2)
	res := mustOptimal(t, p)
	if !near(res.Objective, 5, 1e-7) {
		t.Fatalf("objective = %v, want 5", res.Objective)
	}
	if !near(res.X[x]+res.X[y], 5, 1e-7) {
		t.Fatalf("x+y = %v, want 5", res.X[x]+res.X[y])
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVar(1, "x")
	p.AddConstraint([]Term{{x, 1}}, GE, 5)
	p.AddConstraint([]Term{{x, 1}}, LE, 3)
	res, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVar(1, "x")
	y := p.AddVar(0, "y")
	p.AddConstraint([]Term{{x, 1}, {y, -1}}, LE, 1)
	res, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", res.Status)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// x - y <= -2 with x,y>=0 means y >= x+2. max x + y with y <= 5:
	// x = 3, y = 5 -> obj 8.
	p := NewProblem(Maximize)
	x := p.AddVar(1, "x")
	y := p.AddVar(1, "y")
	p.AddConstraint([]Term{{x, 1}, {y, -1}}, LE, -2)
	p.AddConstraint([]Term{{y, 1}}, LE, 5)
	res := mustOptimal(t, p)
	if !near(res.Objective, 8, 1e-7) {
		t.Fatalf("objective = %v, want 8", res.Objective)
	}
}

func TestDuplicateTermsAccumulate(t *testing.T) {
	// 0.5x + 0.5x <= 3 should behave as x <= 3.
	p := NewProblem(Maximize)
	x := p.AddVar(1, "x")
	p.AddConstraint([]Term{{x, 0.5}, {x, 0.5}}, LE, 3)
	res := mustOptimal(t, p)
	if !near(res.X[x], 3, 1e-7) {
		t.Fatalf("x = %v, want 3", res.X[x])
	}
}

func TestDegenerateMaxMin(t *testing.T) {
	// The paper's §4.1 example: 2 GPUs (1 V100, 1 K80), 3 jobs with
	// speedups 4/3/2 vs K80. Max-min over normalized throughput should
	// yield ~10% above the 1/3 isolated share.
	T := [][]float64{{4, 1}, {3, 1}, {2, 1}}
	// Normalizers: equal-time-share throughput = (T[m][0] + T[m][1]) / 3
	// is NOT the right isolated scale; the paper uses X^equal_m = 1/n per
	// type. throughput(m, X^equal) = sum_j T[m][j]/3.
	norm := make([]float64, 3)
	for m := range T {
		norm[m] = (T[m][0] + T[m][1]) / 3
	}
	p := NewProblem(Maximize)
	tv := p.AddVar(1, "t")
	xv := make([][]int, 3)
	for m := range T {
		xv[m] = []int{p.AddVar(0, ""), p.AddVar(0, "")}
	}
	for m := range T {
		// sum_j T[m][j]/norm[m] * X[m][j] >= t
		p.AddConstraint([]Term{
			{xv[m][0], T[m][0] / norm[m]},
			{xv[m][1], T[m][1] / norm[m]},
			{tv, -1},
		}, GE, 0)
		p.AddConstraint([]Term{{xv[m][0], 1}, {xv[m][1], 1}}, LE, 1)
	}
	for j := 0; j < 2; j++ {
		p.AddConstraint([]Term{{xv[0][j], 1}, {xv[1][j], 1}, {xv[2][j], 1}}, LE, 1)
	}
	res := mustOptimal(t, p)
	if res.X[tv] < 1.05 {
		t.Fatalf("max-min normalized throughput = %v, want >= 1.05 (10%% over isolated)", res.X[tv])
	}
	// Paper reports the heterogeneity-aware allocation gives ~10% gain;
	// check we're in that ballpark (not wildly above either).
	if res.X[tv] > 1.25 {
		t.Fatalf("max-min normalized throughput = %v, suspiciously high", res.X[tv])
	}
}

// TestPropertyFeasibleSolutionsRespectConstraints generates random feasible
// LPs (constraints sampled around a known feasible point) and verifies the
// returned optimum satisfies every constraint and beats the known point.
func TestPropertyFeasibleSolutionsRespectConstraints(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		m := 1 + rng.Intn(6)
		// Known feasible point.
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = rng.Float64() * 5
		}
		p := NewProblem(Maximize)
		obj := make([]float64, n)
		for i := range obj {
			obj[i] = rng.Float64()*4 - 2
			p.AddVar(obj[i], "")
		}
		rows := make([][]float64, m)
		rhs := make([]float64, m)
		for c := 0; c < m; c++ {
			rows[c] = make([]float64, n)
			var terms []Term
			dot := 0.0
			for i := 0; i < n; i++ {
				co := rng.Float64() * 2 // non-negative rows keep it bounded
				rows[c][i] = co
				dot += co * x0[i]
				terms = append(terms, Term{i, co})
			}
			rhs[c] = dot + rng.Float64() // slack so x0 strictly feasible
			p.AddConstraint(terms, LE, rhs[c])
		}
		// Bound every variable so the program is never unbounded.
		for i := 0; i < n; i++ {
			p.AddConstraint([]Term{{i, 1}}, LE, 10+rng.Float64()*10)
		}
		res, err := p.Solve()
		if err != nil || res.Status != Optimal {
			return false
		}
		// Check feasibility of the reported solution.
		for c := 0; c < m; c++ {
			dot := 0.0
			for i := 0; i < n; i++ {
				dot += rows[c][i] * res.X[i]
			}
			if dot > rhs[c]+1e-6 {
				return false
			}
		}
		for i := 0; i < n; i++ {
			if res.X[i] < -1e-9 {
				return false
			}
		}
		// Optimal must be at least as good as the known feasible point.
		want := 0.0
		for i := range obj {
			want += obj[i] * x0[i]
		}
		return res.Objective >= want-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyLPDualityGap checks weak duality on random bounded programs:
// for max c.x s.t. Ax <= b, any feasible dual y (y >= 0, A^T y >= c) has
// b.y >= optimum. We build the dual from the same data and solve both.
func TestPropertyLPDualityGap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		m := n + rng.Intn(3) // enough rows to keep primal bounded
		A := make([][]float64, m)
		b := make([]float64, m)
		c := make([]float64, n)
		for i := range c {
			c[i] = rng.Float64() * 3
		}
		for r := 0; r < m; r++ {
			A[r] = make([]float64, n)
			for i := 0; i < n; i++ {
				A[r][i] = 0.2 + rng.Float64()*2 // strictly positive: bounded
			}
			b[r] = 1 + rng.Float64()*5
		}
		primal := NewProblem(Maximize)
		for i := 0; i < n; i++ {
			primal.AddVar(c[i], "")
		}
		for r := 0; r < m; r++ {
			terms := make([]Term, n)
			for i := 0; i < n; i++ {
				terms[i] = Term{i, A[r][i]}
			}
			primal.AddConstraint(terms, LE, b[r])
		}
		pres, err := primal.Solve()
		if err != nil || pres.Status != Optimal {
			return false
		}
		dual := NewProblem(Minimize)
		for r := 0; r < m; r++ {
			dual.AddVar(b[r], "")
		}
		for i := 0; i < n; i++ {
			terms := make([]Term, m)
			for r := 0; r < m; r++ {
				terms[r] = Term{r, A[r][i]}
			}
			dual.AddConstraint(terms, GE, c[i])
		}
		dres, err := dual.Solve()
		if err != nil || dres.Status != Optimal {
			return false
		}
		// Strong duality should hold to solver tolerance.
		return math.Abs(pres.Objective-dres.Objective) < 1e-5*(1+math.Abs(pres.Objective))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyProblem covers the closed form of a problem without rows: every
// variable rests at zero, unless a cost rewards growing one without limit.
func TestEmptyProblem(t *testing.T) {
	p := NewProblem(Maximize)
	res := mustOptimal(t, p)
	if res.Objective != 0 || len(res.X) != 0 || res.Recovered {
		t.Fatalf("empty problem: %+v", res)
	}
	p.AddVar(-1, "penalized")
	p.AddVar(0, "free")
	res = mustOptimal(t, p)
	if res.Objective != 0 || len(res.X) != 2 || res.X[0] != 0 || res.X[1] != 0 || res.Basis.NumVars() != 2 {
		t.Fatalf("rowless problem: %+v", res)
	}
	p.AddVar(1, "rewarded")
	if res, err := p.Solve(); err != nil || res.Status != Unbounded {
		t.Fatalf("rowless problem with a favorable cost: %+v, %v", res, err)
	}
}

func TestBadVarReference(t *testing.T) {
	p := NewProblem(Maximize)
	p.AddVar(1, "x")
	p.AddConstraint([]Term{{5, 1}}, LE, 1)
	if _, err := p.Solve(); err == nil {
		t.Fatal("want error for out-of-range variable")
	}
}

func TestZeroObjectiveFeasibilityCheck(t *testing.T) {
	// Pure feasibility problems (all-zero objective) are how the makespan
	// and finish-time-fairness policies use the solver inside binary search.
	p := NewProblem(Maximize)
	x := p.AddVar(0, "x")
	y := p.AddVar(0, "y")
	p.AddConstraint([]Term{{x, 2}, {y, 1}}, GE, 3)
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 2)
	res := mustOptimal(t, p)
	if res.X[x]*2+res.X[y] < 3-1e-7 {
		t.Fatalf("feasibility point violates GE constraint: %v", res.X)
	}
}
