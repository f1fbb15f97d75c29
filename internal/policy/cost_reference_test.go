package policy

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gavel/internal/core"
	"gavel/internal/lp"
)

// fractional describes a linear-fractional program
//
//	maximize  (c.x + alpha) / (d.x + beta)
//	s.t.      a_i.x <= b_i   (Op per row)
//	          x >= 0,  d.x + beta > 0
//
// the stand-alone statement of the reduction MinCost writes onto its
// allocation program. solveFractional reduces it to one LP by the
// Charnes-Cooper transformation (see lp.CharnesCooperID) and recovers
// x = y / t.
type fractional struct {
	NumVars int
	Num     []float64 // c, len NumVars
	NumC    float64   // alpha
	Den     []float64 // d, len NumVars
	DenC    float64   // beta
	Cons    []fractionalConstraint
}

// fractionalConstraint is one row a.x (op) b of a fractional program.
type fractionalConstraint struct {
	Terms []lp.Term
	Op    lp.Op
	RHS   float64
}

// transform builds the Charnes-Cooper LP for f, returning the problem, the
// y variable indices, and the t variable index.
func (f *fractional) transform() (*lp.Problem, []int, int, error) {
	if len(f.Num) != f.NumVars || len(f.Den) != f.NumVars {
		return nil, nil, 0, fmt.Errorf("%w: coefficient vectors must have NumVars entries", lp.ErrBadProblem)
	}
	p := lp.NewProblem(lp.Maximize)
	y := make([]int, f.NumVars)
	for j := 0; j < f.NumVars; j++ {
		y[j] = p.AddVar(f.Num[j], "y")
	}
	t := p.AddVar(f.NumC, "t")

	for _, c := range f.Cons {
		terms := make([]lp.Term, 0, len(c.Terms)+1)
		for _, tm := range c.Terms {
			terms = append(terms, lp.Term{Var: y[tm.Var], Coeff: tm.Coeff})
		}
		terms = append(terms, lp.Term{Var: t, Coeff: -c.RHS})
		p.AddConstraint(terms, c.Op, 0)
	}
	denTerms := make([]lp.Term, 0, f.NumVars+1)
	for j, d := range f.Den {
		if d != 0 {
			denTerms = append(denTerms, lp.Term{Var: y[j], Coeff: d})
		}
	}
	denTerms = append(denTerms, lp.Term{Var: t, Coeff: f.DenC})
	p.AddConstraintRow(denTerms, lp.EQ, 1, lp.CharnesCooperRowID)
	return p, y, t, nil
}

// solveFractional solves the linear-fractional program and returns the
// optimal x and objective ratio.
func solveFractional(f *fractional) (x []float64, ratio float64, err error) {
	p, y, t, err := f.transform()
	if err != nil {
		return nil, 0, err
	}
	res, err := p.Solve()
	if err != nil {
		return nil, 0, err
	}
	if res.Status != lp.Optimal {
		return nil, 0, fmt.Errorf("lp: fractional program not optimal: %v", res.Status)
	}
	tv := res.X[t]
	if tv < lp.CharnesCooperMinT {
		return nil, 0, lp.ErrDegenerateFraction
	}
	x = make([]float64, f.NumVars)
	for j := range x {
		x[j] = res.X[y[j]] / tv
	}
	return x, res.Objective, nil
}

func TestSolveFractional(t *testing.T) {
	// maximize (2x + y) / (x + y + 1) s.t. x + y <= 4.
	// At (4, 0): 8/5 = 1.6. Increasing x dominates, so optimum is 1.6.
	f := &fractional{
		NumVars: 2,
		Num:     []float64{2, 1},
		Den:     []float64{1, 1},
		DenC:    1,
		Cons: []fractionalConstraint{
			{Terms: []lp.Term{{Var: 0, Coeff: 1}, {Var: 1, Coeff: 1}}, Op: lp.LE, RHS: 4},
		},
	}
	x, ratio, err := solveFractional(f)
	if err != nil {
		t.Fatalf("solveFractional: %v", err)
	}
	if math.Abs(ratio-1.6) > 1e-6 {
		t.Fatalf("ratio = %v, want 1.6", ratio)
	}
	if math.Abs(x[0]-4) > 1e-6 {
		t.Fatalf("x = %v, want [4 0]", x)
	}
}

// referenceMinCost states the cost policy's linear-fractional program the
// long way — explicit numerator, denominator and constraint lists handed to
// solveFractional — with none of MinCost's machinery: no shared program
// layout, no membership index, no arena. It is what MinCost's direct
// Charnes-Cooper build on core.Program must agree with.
func referenceMinCost(in *Input) ([][]float64, float64, error) {
	numTypes := len(in.Workers)
	varOf := make([][]int, len(in.Units))
	nv := 0
	for ui := range in.Units {
		varOf[ui] = make([]int, numTypes)
		for j := 0; j < numTypes; j++ {
			varOf[ui][j] = -1
			for k := range in.Units[ui].Jobs {
				if in.Units[ui].Tput[k][j] > 0 {
					varOf[ui][j] = nv
					nv++
					break
				}
			}
		}
	}
	f := &fractional{NumVars: nv, Num: make([]float64, nv), Den: make([]float64, nv)}
	workersOf := func(u *core.Unit) float64 {
		n := 1.0
		for _, m := range u.Jobs {
			n = math.Max(n, float64(in.Jobs[m].ScaleFactor))
		}
		return n
	}
	for ui := range in.Units {
		u := &in.Units[ui]
		for j := 0; j < numTypes; j++ {
			v := varOf[ui][j]
			if v < 0 {
				continue
			}
			for k, m := range u.Jobs {
				if fastest := core.MaxThroughput(in.Jobs[m].Tput); core.Finite(fastest) && u.Tput[k][j] > 0 {
					f.Num[v] += u.Tput[k][j] / fastest
				}
			}
			f.Den[v] = in.Prices[j] * workersOf(u)
		}
	}
	for m := range in.Jobs {
		var terms []lp.Term
		for ui := range in.Units {
			for _, jm := range in.Units[ui].Jobs {
				if jm != m {
					continue
				}
				for j := 0; j < numTypes; j++ {
					if v := varOf[ui][j]; v >= 0 {
						terms = append(terms, lp.Term{Var: v, Coeff: 1})
					}
				}
			}
		}
		f.Cons = append(f.Cons, fractionalConstraint{Terms: terms, Op: lp.LE, RHS: 1})
	}
	for j := 0; j < numTypes; j++ {
		var terms []lp.Term
		for ui := range in.Units {
			if v := varOf[ui][j]; v >= 0 {
				terms = append(terms, lp.Term{Var: v, Coeff: workersOf(&in.Units[ui])})
			}
		}
		f.Cons = append(f.Cons, fractionalConstraint{Terms: terms, Op: lp.LE, RHS: in.Workers[j]})
	}
	x, ratio, err := solveFractional(f)
	if err != nil {
		return nil, 0, err
	}
	X := make([][]float64, len(in.Units))
	for ui := range X {
		X[ui] = make([]float64, numTypes)
		for j, v := range varOf[ui] {
			if v >= 0 {
				X[ui][j] = math.Min(1, math.Max(0, x[v]))
			}
		}
	}
	return X, ratio, nil
}

// TestMinCostMatchesFractionalReference checks MinCost — cold, and warm
// through a SolveContext across a perturbed sequence — against the reference
// statement of its program, on random inputs with space-sharing pairs and
// multi-worker jobs: same throughput per dollar, same allocation.
func TestMinCostMatchesFractionalReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 25; trial++ {
		in := randomInput(rng, 3+rng.Intn(8), 3)
		in.Prices = []float64{3.06, 1.46, 0.9}
		for m := range in.Jobs {
			in.Jobs[m].ID = 100 + m
			in.Units[m].Key = core.JobKey(in.Jobs[m].ID)
		}
		if trial%2 == 0 {
			in = withPairs(in, [][2]int{{0, 1}, {1, 2}})
		}
		ctx := NewSolveContext()
		for step := 0; step < 3; step++ {
			wantX, wantRatio, err := referenceMinCost(in)
			if err != nil {
				t.Fatalf("trial %d: reference: %v", trial, err)
			}
			for name, c := range map[string]*SolveContext{"cold": nil, "warm": ctx} {
				alloc, err := (&MinCost{}).Allocate(in, c)
				if err != nil {
					t.Fatalf("trial %d step %d %s: %v", trial, step, name, err)
				}
				if got := costRatio(in, alloc); math.Abs(got-wantRatio) > 1e-7*(1+math.Abs(wantRatio)) {
					t.Fatalf("trial %d step %d %s: throughput per dollar %v, reference %v", trial, step, name, got, wantRatio)
				}
				for ui := range wantX {
					for j := range wantX[ui] {
						if math.Abs(alloc.X[ui][j]-wantX[ui][j]) > 1e-6 {
							t.Fatalf("trial %d step %d %s: X[%d][%d] = %v, reference %v\n%s", trial, step, name, ui, j, alloc.X[ui][j], wantX[ui][j], fmt.Sprint(alloc.X))
						}
					}
				}
			}
			for t2 := range in.Workers {
				in.Workers[t2] *= 1 + 0.03*(2*rng.Float64()-1)
			}
		}
	}
}
