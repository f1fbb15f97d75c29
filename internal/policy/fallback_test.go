package policy

import (
	"fmt"
	"testing"

	"gavel/internal/core"
	"gavel/internal/lp"
)

// maxMinPass1 solves max-min's first LP alone, cold, the way Allocate builds
// it, and extracts its solution.
func maxMinPass1(t *testing.T, in *Input) *core.Allocation {
	coeff := make([]float64, len(in.Jobs))
	normalizers(in, false, coeff)
	var ctx *SolveContext
	pr := ctx.program(lp.Maximize, in, false)
	tv := pr.AddVar(1, "t")
	for m := range in.Jobs {
		if coeff[m] != 0 {
			terms := append(pr.ThroughputTerms(m, coeff[m]), lp.Term{Var: tv, Coeff: -1})
			pr.AddRow(terms, lp.GE, 0, ctx.rowID("r:", in.Jobs[m].ID))
		}
	}
	return solvePass1(t, pr)
}

// makespanPass1 is maxMinPass1 for the makespan policy's z-LP.
func makespanPass1(t *testing.T, in *Input) *core.Allocation {
	var ctx *SolveContext
	pr := ctx.program(lp.Maximize, in, false)
	z := pr.AddVar(1, "z")
	for m := range in.Jobs {
		if steps := in.Jobs[m].RemainingSteps; steps > 0 && core.Finite(core.MaxThroughput(in.Jobs[m].Tput)) {
			terms := append(pr.ThroughputTerms(m, 1), lp.Term{Var: z, Coeff: -steps})
			pr.AddRow(terms, lp.GE, 0, ctx.rowID("r:", in.Jobs[m].ID))
		}
	}
	return solvePass1(t, pr)
}

func solvePass1(t *testing.T, pr *core.Program) *core.Allocation {
	t.Helper()
	res, err := pr.P.Solve()
	if err != nil || res.Status != lp.Optimal {
		t.Fatalf("pass 1: %v %v", res, err)
	}
	return pr.Extract(res.X)
}

// TestFallbacksReturnPassOne forces every engine attempt after a policy's
// first solve to fail. Max-min and makespan fall back to their first LP's
// solution, and finish-time fairness keeps the first feasible probe of its
// bisection: each must return exactly that solution, which the later solves
// (failed here) would otherwise have reused the storage of.
func TestFallbacksReturnPassOne(t *testing.T) {
	in := churnInput([]int{1, 2, 3, 4, 5, 6, 7}, []float64{2, 2, 2})
	for _, tc := range []struct {
		name string
		pol  Policy
		want func() *core.Allocation
	}{
		{"max_min", &MaxMinFairness{}, func() *core.Allocation { return maxMinPass1(t, in) }},
		{"makespan", Makespan{}, func() *core.Allocation { return makespanPass1(t, in) }},
		{"ftf", &FinishTimeFairness{}, func() *core.Allocation {
			// Tol 1 stops the search at its first feasible probe.
			a, err := (&FinishTimeFairness{Tol: 1}).Allocate(in, NewSolveContext())
			if err != nil {
				t.Fatal(err)
			}
			return a
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.want()
			normal, err := tc.pol.Allocate(in, NewSolveContext())
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(normal.X) == fmt.Sprint(want.X) {
				t.Fatal("the input does not tell the first solve's answer from the final one")
			}
			failAttemptsAfter(1, 1000)
			defer failAttemptsAfter(0, 0)
			ctx := NewSolveContext()
			got, err := tc.pol.Allocate(in, ctx)
			if err != nil {
				t.Fatal(err)
			}
			if ctx.Stats.Solves < 2 {
				t.Fatalf("%d solves: the later solve never ran", ctx.Stats.Solves)
			}
			if fmt.Sprint(got.X) != fmt.Sprint(want.X) {
				t.Fatalf("fallback returned\n%v\nwant the first solve's\n%v", got.X, want.X)
			}
		})
	}
}
