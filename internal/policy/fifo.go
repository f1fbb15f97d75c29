package policy

import (
	"sort"

	"gavel/internal/core"
	"gavel/internal/lp"
)

// FIFO is the heterogeneity-aware first-in-first-out policy (§4.2): earlier
// jobs are placed on the fastest accelerators they can use, expressed as
//
//	max_X sum_m (M - m) * throughput(m, X) / throughput(m, X^fastest)
//
// where jobs are enumerated in arrival order. With pair units in the input
// this becomes the paper's SS-aware FIFO.
type FIFO struct{}

// Name implements Policy.
func (FIFO) Name() string { return "fifo" }

// Allocate implements Policy.
func (FIFO) Allocate(in *Input, ctx *SolveContext) (*core.Allocation, error) {
	defer ctx.observeBuild(ctx.startBuild())
	if err := in.validate(); err != nil {
		return nil, err
	}
	if len(in.Jobs) == 0 {
		return emptyAllocation(in), nil
	}
	// Rank jobs by arrival: rank 0 = earliest.
	order := make([]int, len(in.Jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return in.Jobs[order[a]].ArrivalSeq < in.Jobs[order[b]].ArrivalSeq
	})
	w := ctx.floats(len(in.Jobs))
	for rank, m := range order {
		w[m] = float64(len(in.Jobs) - rank)
	}
	return ctx.normalizedThroughput("fifo", in, w)
}

// ShortestJobFirst minimizes the completion time of the job that can finish
// soonest (§4.2), then fills remaining capacity FIFO-style. The "shortest"
// job is the one with minimum remaining_steps / fastest_throughput.
type ShortestJobFirst struct{}

// Name implements Policy.
func (ShortestJobFirst) Name() string { return "shortest_job_first" }

// Allocate implements Policy.
func (ShortestJobFirst) Allocate(in *Input, ctx *SolveContext) (*core.Allocation, error) {
	defer ctx.observeBuild(ctx.startBuild())
	if err := in.validate(); err != nil {
		return nil, err
	}
	if len(in.Jobs) == 0 {
		return emptyAllocation(in), nil
	}
	shortest, best := -1, 0.0
	for m := range in.Jobs {
		fastest := core.MaxThroughput(in.Jobs[m].Tput)
		if !core.Finite(fastest) || in.Jobs[m].RemainingSteps <= 0 {
			continue
		}
		d := in.Jobs[m].RemainingSteps / fastest
		if shortest == -1 || d < best {
			shortest, best = m, d
		}
	}
	if shortest == -1 {
		return emptyAllocation(in), nil
	}

	// Maximize the shortest job's throughput with a large primary weight,
	// breaking ties by total normalized throughput so the rest of the
	// cluster stays busy. A single LP keeps this policy cheap.
	w := ctx.floats(len(in.Jobs))
	for m := range w {
		w[m] = 1
	}
	w[shortest] = 1e6
	return ctx.normalizedThroughput("sjf", in, w)
}

// normalizedThroughput is the one LP of FIFO, shortest-job-first and
// max-total-throughput: maximize sum_m w_m * throughput(m, X) /
// throughput(m, X^fastest) under label.
func (c *SolveContext) normalizedThroughput(label string, in *Input, w []float64) (*core.Allocation, error) {
	pr := c.program(lp.Maximize, in, false)
	for m := range in.Jobs {
		fastest := core.MaxThroughput(in.Jobs[m].Tput)
		if !core.Finite(fastest) {
			continue
		}
		for _, tm := range pr.ThroughputTerms(m, w[m]/fastest) {
			pr.P.AddObj(tm.Var, tm.Coeff)
		}
	}
	res, err := c.solveOptimal(label, pr)
	if err != nil {
		return nil, err
	}
	return c.result(pr, res.X), nil
}
