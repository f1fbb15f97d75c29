package policy

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gavel/internal/core"
	"gavel/internal/lp"
)

// referenceMinCost states the cost policy's linear-fractional program the
// long way — explicit numerator, denominator and constraint lists handed to
// lp.SolveFractional — with none of MinCost's machinery: no shared program
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
	f := &lp.Fractional{NumVars: nv, Num: make([]float64, nv), Den: make([]float64, nv)}
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
		f.Cons = append(f.Cons, lp.FractionalConstraint{Terms: terms, Op: lp.LE, RHS: 1})
	}
	for j := 0; j < numTypes; j++ {
		var terms []lp.Term
		for ui := range in.Units {
			if v := varOf[ui][j]; v >= 0 {
				terms = append(terms, lp.Term{Var: v, Coeff: workersOf(&in.Units[ui])})
			}
		}
		f.Cons = append(f.Cons, lp.FractionalConstraint{Terms: terms, Op: lp.LE, RHS: in.Workers[j]})
	}
	x, ratio, err := lp.SolveFractional(f)
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
