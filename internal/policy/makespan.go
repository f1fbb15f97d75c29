package policy

import (
	"gavel/internal/core"
	"gavel/internal/lp"
)

// Makespan is the heterogeneity-aware minimum-makespan policy (§4.2):
//
//	min_X max_m num_steps_m / throughput(m, X)
//
// The paper formulates this as a binary search over linear feasibility
// programs (Appendix A.1); we use the equivalent exact single-LP form with
// z = 1/makespan, the weighted max-min kernel's pass 1:
//
//	max z  s.t.  throughput(m, X) >= num_steps_m * z  for all m
//
// followed by its refinement, which fixes the optimal makespan and
// maximizes total normalized throughput so jobs off the critical path also
// finish early (tightening the average JCT without hurting the makespan).
// A job with no usable device is left out of the z rows: it cannot
// progress whatever the allocation, and its row would pin z at zero and
// idle every other job.
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
	k := ctx.weightedMaxMin(in, ctx.program(lp.Maximize, in, false))
	for m := range in.Jobs {
		j := &in.Jobs[m]
		k.scale[m] = 1
		if j.RemainingSteps > 0 && core.Finite(core.EqualShareThroughput(j.Tput, in.Workers)) {
			k.tc[m] = j.RemainingSteps
		}
		if fastest := core.MaxThroughput(j.Tput); core.Finite(fastest) {
			k.div[m] = fastest
		}
	}
	return k.solve("makespan/z", "z", "makespan/refine")
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
