package experiments

import (
	"fmt"
	"strings"

	"gavel/internal/cluster"
	"gavel/internal/core"
	"gavel/internal/policy"
	"gavel/internal/workload"
)

// HierarchyOutcome reports the multi-level fairness timeline experiments.
type HierarchyOutcome struct {
	Report string
	// Timeline[t][m] is job m's fraction of total effective throughput at
	// timestep t (jobs not yet arrived have 0).
	Timeline [][]float64
	// EntityShare[t][e] aggregates the timeline per entity.
	EntityShare [][]float64
	// TotalGainOverStatic is the final-timestep total effective throughput
	// of the heterogeneity-aware hierarchical policy over a static
	// heterogeneity-agnostic partition (the paper reports ~17%).
	TotalGainOverStatic float64
}

// Figure11 reproduces the multi-level fairness timeline: 18 jobs arriving
// every 4 timesteps into 3 entities (weights 1, 2, 3) on a 3x3 GPU
// cluster, fairness at both levels (paper Figure 11).
func Figure11() (*HierarchyOutcome, error) {
	return hierarchyTimeline(policy.EntityFairness, "Figure 11: multi-level fairness (fairness within entities)")
}

// Figure21 is the same timeline with FIFO as the intra-entity policy
// (paper Figure 21).
func Figure21() (*HierarchyOutcome, error) {
	return hierarchyTimeline(policy.EntityFIFO, "Figure 21: hierarchical policy (FIFO within entities)")
}

func hierarchyTimeline(intra policy.EntityPolicy, title string) (*HierarchyOutcome, error) {
	const (
		numJobs   = 18
		perEntity = 6
		timesteps = 80
		arriveGap = 4
	)
	spec := cluster.Small9()
	workers := spec.Workers()
	zoo := workload.Zoo()

	pol := &policy.Hierarchical{
		EntityWeight:   map[int]float64{0: 1, 1: 2, 2: 3},
		EntityPolicyOf: map[int]policy.EntityPolicy{0: intra, 1: intra, 2: intra},
	}

	out := &HierarchyOutcome{}
	// One persistent solve context across the whole timeline: between
	// arrival boundaries the water-filling LPs keep their shape, so each
	// timestep warm-starts from the previous optimum.
	ctx := policy.NewSolveContext()
	var lastAlloc *core.Allocation
	var lastIn *policy.Input
	for ts := 0; ts < timesteps; ts++ {
		arrived := ts/arriveGap + 1
		if arrived > numJobs {
			arrived = numJobs
		}
		in := &policy.Input{Workers: workers, Prices: spec.Prices()}
		for m := 0; m < arrived; m++ {
			cfg := zoo[(m*5)%len(zoo)]
			tput := make([]float64, len(workers))
			for t := range tput {
				if workload.Fits(cfg, t) {
					tput[t] = workload.Throughput(cfg, t)
				}
			}
			in.Jobs = append(in.Jobs, policy.JobInfo{
				ID: m, Weight: 1, Priority: 1, ScaleFactor: 1, Tput: tput,
				RemainingSteps: 1e9, TotalSteps: 1e9, ArrivalSeq: m,
				Entity: m / perEntity, NumActiveJobs: arrived,
			})
			in.Units = append(in.Units, core.Single(m, tput))
		}
		alloc, err := pol.Allocate(in, ctx)
		if err != nil {
			return nil, fmt.Errorf("timestep %d: %w", ts, err)
		}
		lastAlloc, lastIn = alloc, in

		// Normalized per-job share of total effective throughput.
		shares := make([]float64, numJobs)
		total := 0.0
		norm := alloc.EffectiveThroughputs(arrived)
		for m := 0; m < arrived; m++ {
			norm[m] /= core.EqualShareThroughput(in.Jobs[m].Tput, workers)
			total += norm[m]
		}
		if total > 0 {
			for m := 0; m < arrived; m++ {
				shares[m] = norm[m] / total
			}
		}
		out.Timeline = append(out.Timeline, shares)
		es := make([]float64, 3)
		for m := 0; m < arrived; m++ {
			es[m/perEntity] += shares[m]
		}
		out.EntityShare = append(out.EntityShare, es)
	}

	// Static heterogeneity-agnostic partition: each entity statically owns
	// weight-proportional slices of every type, split evenly among its
	// jobs — then total effective normalized throughput is compared.
	staticTotal := 0.0
	awareTotal := 0.0
	lastTput := lastAlloc.EffectiveThroughputs(len(lastIn.Jobs))
	for m := range lastIn.Jobs {
		e := lastIn.Jobs[m].Entity
		entW := []float64{1, 2, 3}[e] / 6.0
		perJob := entW / perEntity // this job's time fraction of every device
		tp := 0.0
		for t, w := range workers {
			tp += lastIn.Jobs[m].Tput[t] * perJob * w
		}
		norm := core.EqualShareThroughput(lastIn.Jobs[m].Tput, workers)
		staticTotal += tp / norm
		awareTotal += lastTput[m] / norm
	}
	out.TotalGainOverStatic = awareTotal / staticTotal

	var b strings.Builder
	b.WriteString(title + "\n")
	b.WriteString("entity shares of total normalized throughput over time:\n")
	fmt.Fprintf(&b, "%-10s %10s %10s %10s\n", "timestep", "entity0", "entity1", "entity2")
	for ts := 0; ts < len(out.EntityShare); ts += 8 {
		es := out.EntityShare[ts]
		fmt.Fprintf(&b, "%-10d %10.3f %10.3f %10.3f\n", ts, es[0], es[1], es[2])
	}
	es := out.EntityShare[len(out.EntityShare)-1]
	fmt.Fprintf(&b, "final entity shares: %.3f / %.3f / %.3f (weights 1/2/3)\n", es[0], es[1], es[2])
	fmt.Fprintf(&b, "total throughput vs static agnostic partition: %.2fx\n", out.TotalGainOverStatic)
	out.Report = b.String()
	return out, nil
}
