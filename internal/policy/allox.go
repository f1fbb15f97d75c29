package policy

import (
	"fmt"
	"math"
	"sort"

	"gavel/internal/assignment"
	"gavel/internal/core"
)

// AlloX is the related-work baseline of Le et al. (EuroSys 2020): minimize
// average job completion time on a heterogeneous cluster by solving a
// min-cost bipartite matching of jobs to (device, position-from-the-end)
// slots, where a job in position k from the end of a device's queue
// contributes k times its processing time to the sum of completion times.
// It handles single-worker jobs only (as in the paper's evaluation, which
// compares against AlloX on the continuous-single trace).
//
// The matching yields an ordered queue per device; the allocation returned
// runs each queue's head at full rate on its device type.
type AlloX struct {
	// MaxQueued caps how many jobs (by shortest processing time) enter the
	// matching; beyond this the matching cost dominates and jobs past the
	// cap would not run this round anyway. Default 4x the device count.
	MaxQueued int
}

// Name implements Policy.
func (p *AlloX) Name() string { return "allox" }

// Allocate implements Policy.
func (p *AlloX) Allocate(in *Input, _ *SolveContext) (*core.Allocation, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	if len(in.Jobs) == 0 {
		return emptyAllocation(in), nil
	}

	// Device list: one machine per physical device.
	type device struct{ typ int }
	var devices []device
	for j, w := range in.Workers {
		for k := 0; k < int(w); k++ {
			devices = append(devices, device{typ: j})
		}
	}
	if len(devices) == 0 {
		return emptyAllocation(in), nil
	}

	// Candidate jobs: single-worker, runnable; shortest first under the cap.
	var cand []int
	for m := range in.Jobs {
		if in.Jobs[m].ScaleFactor > 1 || in.Jobs[m].RemainingSteps <= 0 {
			continue
		}
		if core.Finite(core.MaxThroughput(in.Jobs[m].Tput)) {
			cand = append(cand, m)
		}
	}
	if len(cand) == 0 {
		return emptyAllocation(in), nil
	}
	minProc := func(m int) float64 {
		best := math.Inf(1)
		for j, t := range in.Jobs[m].Tput {
			if t > 0 && float64(j) >= 0 {
				if d := in.Jobs[m].RemainingSteps / t; d < best {
					best = d
				}
			}
		}
		return best
	}
	sort.Slice(cand, func(a, b int) bool { return minProc(cand[a]) < minProc(cand[b]) })
	maxQ := p.MaxQueued
	if maxQ <= 0 {
		maxQ = 4 * len(devices)
	}
	if len(cand) > maxQ {
		cand = cand[:maxQ]
	}

	// Slots: (device, position 1..P) with P = ceil(len(cand)/len(devices)).
	// When some jobs are memory-constrained to a scarce device type, the
	// minimal queue depth can leave such a job with no feasible slot;
	// deepen the queues and retry (rare, so the retry loop is cheap).
	positions := (len(cand) + len(devices) - 1) / len(devices)
	if positions < 1 {
		positions = 1
	}
	var assign []int
	for {
		nSlots := len(devices) * positions
		cost := make([][]float64, len(cand))
		for ci, m := range cand {
			cost[ci] = make([]float64, nSlots)
			for di, dev := range devices {
				t := in.Jobs[m].Tput[dev.typ]
				for k := 0; k < positions; k++ {
					slot := di*positions + k
					if t <= 0 {
						cost[ci][slot] = assignment.Inf
						continue
					}
					proc := in.Jobs[m].RemainingSteps / t
					cost[ci][slot] = float64(k+1) * proc
				}
			}
		}
		var err error
		assign, _, err = assignment.Solve(cost)
		if err == nil {
			break
		}
		if positions >= len(cand) {
			return nil, fmt.Errorf("allox matching: %w", err)
		}
		positions *= 2
		if positions > len(cand) {
			positions = len(cand)
		}
	}

	// Per device, the job with the largest position-from-the-end runs now.
	head := make([]int, len(devices)) // candidate index + 1, 0 = none
	headPos := make([]int, len(devices))
	for ci, slot := range assign {
		di := slot / positions
		k := slot%positions + 1
		if head[di] == 0 || k > headPos[di] {
			head[di] = ci + 1
			headPos[di] = k
		}
	}

	out := emptyAllocation(in)
	X := out.X
	for di, h := range head {
		if h == 0 {
			continue
		}
		m := cand[h-1]
		X[m][devices[di].typ] += 1
	}
	// A job can head at most one device queue (each row matched once), so
	// X rows stay within the per-job budget; clamp for safety.
	for ui := range X {
		total := 0.0
		for j := range X[ui] {
			total += X[ui][j]
		}
		if total > 1 {
			for j := range X[ui] {
				X[ui][j] /= total
			}
		}
	}
	return out, nil
}
