package policy

import (
	"fmt"

	"gavel/internal/core"
	"gavel/internal/lp"
)

// Makespan is the heterogeneity-aware minimum-makespan policy (§4.2):
//
//	min_X max_m num_steps_m / throughput(m, X)
//
// The paper formulates this as a binary search over linear feasibility
// programs (Appendix A.1); we use the equivalent exact single-LP form with
// z = 1/makespan:
//
//	max z  s.t.  throughput(m, X) >= num_steps_m * z  for all m
//
// followed by a refinement LP that fixes the optimal makespan and maximizes
// total normalized throughput so jobs off the critical path also finish
// early (tightening the average JCT without hurting the makespan).
type Makespan struct{}

// Name implements Policy.
func (Makespan) Name() string { return "min_makespan" }

// Allocate implements Policy.
func (Makespan) Allocate(in *Input, ctx *SolveContext) (*core.Allocation, error) {
	defer ctx.observeBuild(ctx.startBuild())
	if err := in.validate(); err != nil {
		return nil, err
	}
	if len(in.Jobs) == 0 {
		return emptyAllocation(in), nil
	}

	pr := ctx.program(lp.Maximize, in, false)
	z := pr.AddVar(1, "z")
	nConstrained := 0
	for m := range in.Jobs {
		steps := in.Jobs[m].RemainingSteps
		if steps <= 0 || !core.Finite(core.MaxThroughput(in.Jobs[m].Tput)) {
			continue
		}
		terms := pr.ThroughputTerms(m, 1)
		terms = append(terms, lp.Term{Var: z, Coeff: -steps})
		pr.AddRow(terms, lp.GE, 0, ctx.rowID("r:", in.Jobs[m].ID))
		nConstrained++
	}
	if nConstrained == 0 {
		return emptyAllocation(in), nil
	}
	res, err := ctx.Solve("makespan/z", pr.P, pr.ColumnIDs())
	if err != nil {
		return nil, fmt.Errorf("makespan LP: %w", err)
	}
	if res.Status != lp.Optimal {
		return nil, fmt.Errorf("makespan LP: %v", res.Status)
	}
	zStar := res.X[z]
	if zStar <= 0 {
		return ctx.result(pr, res.X), nil
	}

	// Refinement: keep every job on pace for the optimal makespan, then
	// maximize total normalized throughput — on the same skeleton, rewound.
	// The refinement's solve reuses the storage of the first pass's
	// solution, kept here for the fallback.
	x1 := ctx.keep(res.X)
	pr.Rewind()
	for m := range in.Jobs {
		steps := in.Jobs[m].RemainingSteps
		fastest := core.MaxThroughput(in.Jobs[m].Tput)
		if !core.Finite(fastest) {
			continue
		}
		terms := pr.ThroughputTerms(m, 1)
		for _, tm := range terms {
			pr.P.AddObj(tm.Var, tm.Coeff/fastest)
		}
		if steps > 0 {
			pr.AddRow(terms, lp.GE, steps*zStar*(1-1e-6), ctx.rowID("r:", in.Jobs[m].ID))
		}
	}
	res2, err := ctx.Solve("makespan/refine", pr.P, pr.ColumnIDs())
	if err != nil || res2.Status != lp.Optimal {
		return ctx.result(pr, x1), nil
	}
	return ctx.result(pr, res2.X), nil
}

// MakespanValue returns the makespan the allocation achieves on the given
// input: max_m remaining_steps / throughput(m, X).
func MakespanValue(in *Input, alloc *core.Allocation) float64 {
	worst := 0.0
	tput := alloc.EffectiveThroughputs(len(in.Jobs))
	for m := range in.Jobs {
		steps := in.Jobs[m].RemainingSteps
		if steps <= 0 {
			continue
		}
		tp := tput[m]
		if tp <= 0 {
			return inf()
		}
		if d := steps / tp; d > worst {
			worst = d
		}
	}
	return worst
}

func inf() float64 { return 1e308 }
