package policy

import (
	"fmt"
	"math"

	"gavel/internal/core"
	"gavel/internal/lp"
)

// FinishTimeFairness is the heterogeneity-aware Themis policy (§4.2):
// minimize the maximum finish-time-fairness ratio
//
//	rho(m, X) = (elapsed_m + steps_m / throughput(m, X)) /
//	            (elapsed_m + steps_m / throughput(m, X^isolated))
//
// where X^isolated gives each of the n active jobs a 1/n share of every
// accelerator. rho <= 1 means sharing made the job no slower than its
// isolated share would have.
//
// The program min_X max_m rho is not linear (throughput appears in a
// denominator), so we binary-search the optimal rho r*: for fixed r the
// constraint rho(m, X) <= r rewrites to the linear
//
//	throughput(m, X) >= steps_m / (r * d_m - elapsed_m)
//
// with d_m the (constant) isolated denominator, and feasibility is one LP.
type FinishTimeFairness struct {
	// Tol is the relative binary-search tolerance (default 1e-3).
	Tol float64
}

// Name implements Policy.
func (p *FinishTimeFairness) Name() string { return "finish_time_fairness" }

// Allocate implements Policy.
func (p *FinishTimeFairness) Allocate(in *Input, ctx *SolveContext) (*core.Allocation, error) {
	defer ctx.observeBuild(ctx.startBuild())
	if err := in.validate(); err != nil {
		return nil, err
	}
	if len(in.Jobs) == 0 {
		return emptyAllocation(in), nil
	}
	tol := p.Tol
	if tol <= 0 {
		tol = 1e-3
	}

	// Each probe is the weighted max-min kernel's refine with the probe's
	// floors, over the jobs with an isolated finish time d_m, also rewarding
	// normalized throughput so the feasible point is not lazy.
	k := ctx.weightedMaxMin(in, ctx.program(lp.Maximize, in, false))
	active := 0
	for m := range in.Jobs {
		if isolatedFinish(in, m) != 0 {
			k.scale[m], k.tc[m], k.div[m] = 1, 1, core.MaxThroughput(in.Jobs[m].Tput)
			active++
		}
	}
	if active == 0 {
		return emptyAllocation(in), nil
	}

	// Every probe of the search solves over the same skeleton, rewound per
	// probe; only the last feasible probe's solution is extracted, after
	// the search (Extract reads only the skeleton).
	feasible := func(r float64) ([]float64, bool) {
		for m, tc := range k.tc {
			if tc == 0 {
				continue
			}
			budget := r*isolatedFinish(in, m) - in.Jobs[m].Elapsed
			if budget <= 0 {
				return nil, false // job cannot meet ratio r no matter what
			}
			k.floor[m] = in.Jobs[m].RemainingSteps / budget
		}
		res, err := k.refine("ftf/feas")
		if err != nil {
			return nil, false
		}
		return res.X, true
	}

	lo, hi := 0.0, 1.0
	var best []float64
	// Grow hi until feasible (rho can exceed 1 under heavy load).
	for i := 0; i < 40; i++ {
		if x, ok := feasible(hi); ok {
			best = ctx.keep(x)
			break
		}
		lo = hi
		hi *= 2
	}
	if best == nil {
		return nil, fmt.Errorf("ftf: no feasible rho up to %v", hi)
	}
	for hi-lo > tol*hi {
		mid := (lo + hi) / 2
		if x, ok := feasible(mid); ok {
			best, hi = ctx.keep(x), mid
		} else {
			lo = mid
		}
	}
	return ctx.result(k.pr, best), nil
}

// RhoValue returns the finish-time-fairness ratio of job m under alloc,
// using the same isolated-share denominator as the policy. Infinite when
// the job receives no throughput.
func RhoValue(in *Input, alloc *core.Allocation, m int) float64 {
	den := isolatedFinish(in, m)
	if den == 0 {
		return 1
	}
	j := &in.Jobs[m]
	tp := alloc.EffectiveThroughput(m)
	if tp <= 0 {
		return math.Inf(1)
	}
	return (j.Elapsed + j.RemainingSteps/tp) / den
}

// isolatedFinish is d_m, job m's finish time on its isolated 1/n share of
// every accelerator, or 0 for a job without work or a usable device.
func isolatedFinish(in *Input, m int) float64 {
	j := &in.Jobs[m]
	n := float64(j.NumActiveJobs)
	if n < 1 {
		n = float64(len(in.Jobs))
	}
	iso := core.EqualShareThroughput(j.Tput, in.Workers) / n
	if !core.Finite(iso) || j.RemainingSteps <= 0 {
		return 0
	}
	return j.Elapsed + j.RemainingSteps/iso
}
