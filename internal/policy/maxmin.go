package policy

import (
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
	k := ctx.weightedMaxMin(in, ctx.program(lp.Maximize, in, false))
	if !normalizers(in, p.UsePriorities, k.scale) {
		return emptyAllocation(in), nil
	}
	for m, s := range k.scale {
		if s != 0 {
			k.tc[m], k.div[m] = 1, 1
		}
	}
	return k.solve("maxmin/minmax", "t", "maxmin/refine")
}

// normalizers writes scale_m / (w_m * throughput(m, X^equal)) per job into
// coeff, 0 for a job without weight or usable capacity; it reports whether
// any job is schedulable.
func normalizers(in *Input, usePriorities bool, coeff []float64) bool {
	any := false
	for m := range in.Jobs {
		j := &in.Jobs[m]
		w := j.Weight
		if usePriorities {
			w = effectiveWeight(j)
		}
		norm := core.EqualShareThroughput(j.Tput, in.Workers)
		if w <= 0 || !core.Finite(norm) {
			coeff[m] = 0
			continue
		}
		coeff[m] = float64(j.scaleFactor()) / (w * norm)
		any = true
	}
	return any
}

// weightedMaxMin is the one program behind max-min fairness, makespan,
// finish-time fairness's probe and placement-aware max-min. Per job m it
// reads
//
//   - scale_m, the factor on throughput(m, X);
//   - tc_m, the job's coefficient on t: 0 leaves the job out of pass 1's
//     rows and pass 2's floors;
//   - div_m, pass 2's objective divisor: 0 leaves the job out of the
//     objective;
//
// and runs in two passes over one skeleton:
//
//	pass 1:  max t  s.t.  scale_m * throughput(m, X) >= tc_m * t
//	pass 2:  max sum_m scale_m * throughput(m, X) / div_m
//	         s.t.  scale_m * throughput(m, X) >= floor_m
//
// Pass 2 (refine) spends what the bottleneck leaves over without letting
// any job drop below its floor. Rows are named "r:<job ID>" in both passes.
type weightedMaxMin struct {
	ctx                   *SolveContext
	in                    *Input
	pr                    *core.Program
	scale, tc, div, floor []float64
}

// weightedMaxMin returns the kernel over pr, its per-job vectors zeroed in
// context scratch (floats).
func (c *SolveContext) weightedMaxMin(in *Input, pr *core.Program) weightedMaxMin {
	n := len(in.Jobs)
	v := c.floats(4 * n)
	return weightedMaxMin{ctx: c, in: in, pr: pr,
		scale: v[:n:n], tc: v[n : 2*n : 2*n], div: v[2*n : 3*n : 3*n], floor: v[3*n:]}
}

// maximize runs pass 1 under label, with t the column named tID, and
// returns its solution and t*. With no job in a row it solves nothing and
// returns a nil solution.
func (k *weightedMaxMin) maximize(label, tID string) (x []float64, tStar float64, err error) {
	t := k.pr.AddVar(1, tID)
	rows := false
	for m, tc := range k.tc {
		if tc == 0 {
			continue
		}
		terms := append(k.pr.ThroughputTerms(m, k.scale[m]), lp.Term{Var: t, Coeff: -tc})
		k.pr.AddRow(terms, lp.GE, 0, k.ctx.rowID("r:", k.in.Jobs[m].ID))
		rows = true
	}
	if !rows {
		return nil, 0, nil
	}
	res, err := k.ctx.solveOptimal(label, k.pr)
	if err != nil {
		return nil, 0, err
	}
	return res.X, res.X[t], nil
}

// refine rewinds the skeleton and runs pass 2 under label with the floors
// in k.floor.
func (k *weightedMaxMin) refine(label string) (*lp.Result, error) {
	k.pr.Rewind()
	for m := range k.in.Jobs {
		tc, div := k.tc[m], k.div[m]
		if tc == 0 && div == 0 {
			continue
		}
		terms := k.pr.ThroughputTerms(m, k.scale[m])
		if div != 0 {
			for _, tm := range terms {
				k.pr.P.AddObj(tm.Var, tm.Coeff/div)
			}
		}
		if tc != 0 {
			k.pr.AddRow(terms, lp.GE, k.floor[m], k.ctx.rowID("r:", k.in.Jobs[m].ID))
		}
	}
	return k.ctx.solveOptimal(label, k.pr)
}

// solve runs both passes, pass 2 with every floor just below pass 1's level,
// (tc_m * t*) * (1 - 1e-6), and returns the allocation. The floors should
// always be feasible, so a refine that fails hit numerical trouble: the
// answer is then pass 1's solution. No job with a row is an empty
// allocation.
func (k *weightedMaxMin) solve(minmax, tID, refine string) (*core.Allocation, error) {
	x, tStar, err := k.maximize(minmax, tID)
	switch {
	case err != nil:
		return nil, err
	case x == nil:
		return emptyAllocation(k.in), nil
	}
	// Pass 2 reuses the storage of pass 1's solution, kept for the fallback.
	x = k.ctx.keep(x)
	for m, tc := range k.tc {
		k.floor[m] = tc * tStar * (1 - 1e-6)
	}
	if res, err := k.refine(refine); err == nil {
		x = res.X
	}
	return k.ctx.result(k.pr, x), nil
}
