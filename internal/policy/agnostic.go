package policy

import (
	"gavel/internal/core"
)

// Agnostic wraps a heterogeneity-aware policy to produce its
// heterogeneity-agnostic baseline, matching how the paper's "LAS", "FIFO",
// and "FTF" baselines behave: the wrapped policy sees a throughput matrix
// of ones (every accelerator looks identical), so it divides *time*, not
// effective throughput. Space-sharing pair units are dropped — agnostic
// baselines do not reason about colocation.
//
// The returned allocation is re-expressed over the original input's units
// so the scheduling mechanism can execute it unchanged.
type Agnostic struct {
	Inner Policy
}

// Name implements Policy.
func (p *Agnostic) Name() string { return p.Inner.Name() + "_agnostic" }

// Allocate implements Policy.
func (p *Agnostic) Allocate(in *Input, ctx *SolveContext) (*core.Allocation, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	flat := &Input{
		Jobs:    make([]JobInfo, len(in.Jobs)),
		Units:   make([]core.Unit, len(in.Jobs)),
		Workers: in.Workers,
		Prices:  in.Prices,
	}
	for m := range in.Jobs {
		j := in.Jobs[m] // copy
		ones := make([]float64, len(in.Workers))
		for t := range ones {
			if j.Tput[t] > 0 { // preserve infeasible placements
				ones[t] = 1
			}
		}
		j.Tput = ones
		flat.Jobs[m] = j
		// Keyed by the external job ID so the inner policy's cached bases
		// remap correctly across arrivals/departures instead of matching
		// columns by position.
		flat.Units[m] = core.Single(m, ones).Keyed(core.JobKey(j.ID))
	}
	alloc, err := p.Inner.Allocate(flat, ctx)
	if err != nil {
		return nil, err
	}
	// The inner policy decided each job's total time share; a
	// heterogeneity-agnostic scheduler hands that time out on whatever
	// device is free, i.e. spread across types in proportion to capacity
	// (the paper's "1/n of the time on each accelerator" isolated shape) —
	// not concentrated on the type a solver happened to pick first.
	totalW := 0.0
	for _, w := range in.Workers {
		totalW += w
	}
	out := emptyAllocation(in)
	X := out.X
	for m := range in.Jobs {
		share := 0.0
		for _, x := range alloc.X[m] {
			share += x
		}
		if share <= 0 || totalW <= 0 {
			continue
		}
		usable := 0.0
		for t := range in.Workers {
			if in.Jobs[m].Tput[t] > 0 {
				usable += in.Workers[t]
			}
		}
		if usable <= 0 {
			continue
		}
		for t := range in.Workers {
			if in.Jobs[m].Tput[t] > 0 {
				X[m][t] = share * in.Workers[t] / usable
			}
		}
	}
	// Jobs that cannot use every type concentrate their share on the rest,
	// which can oversubscribe a type; rescale overloaded columns (shrinking
	// a job's budget is always feasible).
	for t := range in.Workers {
		used := 0.0
		for m := range in.Jobs {
			used += X[m][t] * float64(in.Jobs[m].scaleFactor())
		}
		if used > in.Workers[t] {
			f := in.Workers[t] / used
			for m := range in.Jobs {
				X[m][t] *= f
			}
		}
	}
	return out, nil
}
