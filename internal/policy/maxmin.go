package policy

import (
	"fmt"

	"gavel/internal/core"
	"gavel/internal/lp"
)

// MaxMinFairness is the heterogeneity-aware Least Attained Service policy
// (§4.1): it maximizes the minimum weighted normalized effective throughput
//
//	max_X min_m (scale_m / w_m) * throughput(m, X) / throughput(m, X^equal)
//
// over valid allocations. With space-sharing pair units in the input it is
// the paper's "Gavel w/ SS" policy. After the max-min LP it runs a second
// LP that maximizes the total normalized throughput subject to the computed
// minimum, so non-bottlenecked jobs soak up leftover capacity (a one-step
// approximation of water filling; see WaterFilledMaxMin for the full
// iterative procedure used by the hierarchical experiments).
type MaxMinFairness struct {
	// UsePriorities folds JobInfo.Priority into the weights (the
	// LAS-with-priorities experiment, Figure 20).
	UsePriorities bool
}

// Name implements Policy.
func (p *MaxMinFairness) Name() string { return "max_min_fairness" }

// Allocate implements Policy.
func (p *MaxMinFairness) Allocate(in *Input, ctx *SolveContext) (*core.Allocation, error) {
	defer ctx.observeBuild(ctx.startBuild())
	if err := in.validate(); err != nil {
		return nil, err
	}
	if len(in.Jobs) == 0 {
		return emptyAllocation(in), nil
	}
	coeff, ok := p.normalizers(in)
	if !ok {
		return emptyAllocation(in), nil
	}

	// Pass 1: maximize the minimum normalized throughput t.
	pr := ctx.program(lp.Maximize, in, false)
	t := pr.AddVar(1, "t")
	for m := range in.Jobs {
		if coeff[m] == 0 {
			continue
		}
		terms := pr.ThroughputTerms(m, coeff[m])
		terms = append(terms, lp.Term{Var: t, Coeff: -1})
		pr.AddRow(terms, lp.GE, 0, ctx.rowID("r:", in.Jobs[m].ID))
	}
	res, err := ctx.Solve("maxmin/minmax", pr.P, pr.ColumnIDs())
	if err != nil {
		return nil, fmt.Errorf("max-min LP: %w", err)
	}
	if res.Status != lp.Optimal {
		return nil, fmt.Errorf("max-min LP: %v", res.Status)
	}
	tStar := res.X[t]

	// Pass 2: fix the fairness floor slightly below t*, maximize total
	// normalized throughput so leftover capacity is not wasted. Its program
	// is pass 1's skeleton (same columns, budget and capacity rows) without
	// the t column, so it is rewound rather than rebuilt from the units.
	// Pass 2's solve reuses the storage of pass 1's solution, kept here for
	// the fallback.
	x1 := ctx.keep(res.X)
	pr.Rewind()
	for m := range in.Jobs {
		if coeff[m] == 0 {
			continue
		}
		terms := pr.ThroughputTerms(m, coeff[m])
		for _, tm := range terms {
			pr.P.AddObj(tm.Var, tm.Coeff)
		}
		pr.AddRow(terms, lp.GE, tStar*(1-1e-6), ctx.rowID("r:", in.Jobs[m].ID))
	}
	res2, err := ctx.Solve("maxmin/refine", pr.P, pr.ColumnIDs())
	if err != nil || res2.Status != lp.Optimal {
		// The floor should always be feasible; fall back to pass 1 if the
		// refinement hits numerical trouble.
		return ctx.result(pr, x1), nil
	}
	return ctx.result(pr, res2.X), nil
}

// normalizers computes scale_m / (w_m * throughput(m, X^equal)) per job;
// ok is false when no job is schedulable.
func (p *MaxMinFairness) normalizers(in *Input) ([]float64, bool) {
	coeff := make([]float64, len(in.Jobs))
	any := false
	for m := range in.Jobs {
		j := &in.Jobs[m]
		w := j.Weight
		if p.UsePriorities {
			w = effectiveWeight(j)
		}
		if w <= 0 {
			continue
		}
		norm := core.EqualShareThroughput(j.Tput, in.Workers)
		if !core.Finite(norm) {
			continue
		}
		sf := float64(j.ScaleFactor)
		if sf < 1 {
			sf = 1
		}
		coeff[m] = sf / (w * norm)
		any = true
	}
	return coeff, any
}
