package policy

import (
	"fmt"
	"slices"
	"sort"

	"gavel/internal/core"
	"gavel/internal/lp"
)

// MinCost is the paper's cloud cost policy (§4.2): maximize time-averaged
// normalized throughput per dollar,
//
//	max_X  sum_m throughput(m, X) / throughput(m, X^fastest)
//	       --------------------------------------------------
//	       sum_u sum_j cost_j * X_uj
//
// a linear-fractional program solved exactly with the Charnes-Cooper
// transformation (lp.CharnesCooperID), built directly on core.Program's
// homogenized layout so it shares the reset path. Pair units are charged
// once, so space sharing is not double-billed. With EnforceSLOs set, the
// constraint throughput(m, X) >= steps_m / SLO_remaining_m is added for
// every job with an SLO ("minimize cost w/ SLOs").
type MinCost struct {
	EnforceSLOs bool
}

// Name implements Policy.
func (p *MinCost) Name() string {
	if p.EnforceSLOs {
		return "min_cost_slo"
	}
	return "min_cost"
}

// Allocate implements Policy.
func (p *MinCost) Allocate(in *Input, ctx *SolveContext) (*core.Allocation, error) {
	defer ctx.observeBuild(ctx.startBuild())
	if err := in.validate(); err != nil {
		return nil, err
	}
	if len(in.Jobs) == 0 {
		return emptyAllocation(in), nil
	}
	if len(in.Prices) != len(in.Workers) {
		return nil, fmt.Errorf("min_cost: %d prices for %d types", len(in.Prices), len(in.Workers))
	}
	// A job that runs nowhere adds nothing to the numerator and has no column
	// to charge; with no other job the normalization row has no term at all
	// and the program is infeasible. Nothing is worth buying.
	if !slices.ContainsFunc(in.Jobs, func(j JobInfo) bool { return core.Finite(core.MaxThroughput(j.Tput)) }) {
		return emptyAllocation(in), nil
	}

	// SLO floor constraints. An SLO that cannot be met even on the job's
	// fastest accelerator running full time is hopeless — adding it would
	// make the whole program infeasible, so it is skipped (the violation
	// is already inevitable). If the aggregate set is still infeasible
	// (cluster oversubscribed), the tightest constraints are relaxed batch
	// by batch: those jobs will violate regardless, and the rest keep
	// their guarantees.
	type sloCon struct {
		job       int
		need      float64
		tightness float64 // need / fastest; higher = harder
	}
	var slos []sloCon
	if p.EnforceSLOs {
		for m := range in.Jobs {
			j := &in.Jobs[m]
			if j.SLORemaining <= 0 || j.RemainingSteps <= 0 {
				continue
			}
			need := j.RemainingSteps / j.SLORemaining
			fastest := core.MaxThroughput(j.Tput)
			if !core.Finite(fastest) || need > fastest {
				continue // hopeless SLO
			}
			slos = append(slos, sloCon{job: m, need: need, tightness: need / fastest})
		}
		sort.Slice(slos, func(a, b int) bool { return slos[a].tightness < slos[b].tightness })
	}

	// The Charnes-Cooper transformed LP (lp.CharnesCooperID documents the
	// reduction), written straight onto the shared allocation layout: the
	// program's columns are y = t·X over the usable (unit, type) pairs plus
	// the homogenizing t, its skeleton the budget and capacity rows
	// a·y − b·t <= 0. A solution with t ~ 0 has an unbounded denominator.
	pr := ctx.program(lp.Maximize, in, true)
	den := ctx.floats(pr.P.NumVars()) // zero at the homogenizer
	solve := func(nSLO int) (*lp.Result, error) {
		pr.Rewind()
		// Numerator (the objective): normalized throughput. Denominator
		// (the normalization row): dollar rate, a pair unit charged once.
		for ui := range in.Units {
			u := &in.Units[ui]
			for j, v := range pr.XVar[ui] {
				if v < 0 {
					continue
				}
				for k, m := range u.Jobs {
					fastest := core.MaxThroughput(in.Jobs[m].Tput)
					if core.Finite(fastest) && u.Tput[k][j] > 0 {
						pr.P.AddObj(v, u.Tput[k][j]/fastest)
					}
				}
				nWorkers := float64(1)
				for _, m := range u.Jobs {
					if s := float64(in.Jobs[m].scaleFactor()); s > nWorkers {
						nWorkers = s
					}
				}
				den[v] = in.Prices[j] * nWorkers
			}
		}
		for _, s := range slos[:nSLO] {
			pr.AddRow(pr.ThroughputTerms(s.job, 1), lp.GE, s.need, ctx.rowID("slo:", in.Jobs[s.job].ID))
		}
		pr.AddNormalization(den, 0)
		res, err := ctx.solveOptimal("mincost", pr)
		if err == nil && res.X[pr.Homogenizer()] < lp.CharnesCooperMinT {
			err = lp.ErrDegenerateFraction
		}
		return res, err
	}
	nSLO := len(slos)
	res, err := solve(nSLO)
	for err != nil && nSLO > 0 {
		// Drop the tightest quarter (at least one) and retry.
		drop := (nSLO + 3) / 4
		nSLO -= drop
		res, err = solve(nSLO)
	}
	if err != nil {
		return nil, fmt.Errorf("min_cost: %w", err)
	}
	return ctx.result(pr, res.X), nil
}

// MaxTotalThroughput maximizes total normalized effective throughput: the
// cost experiment's "maximize throughput" baseline.
type MaxTotalThroughput struct{}

// Name implements Policy.
func (MaxTotalThroughput) Name() string { return "max_total_throughput" }

// Allocate implements Policy.
func (MaxTotalThroughput) Allocate(in *Input, ctx *SolveContext) (*core.Allocation, error) {
	defer ctx.observeBuild(ctx.startBuild())
	if err := in.validate(); err != nil {
		return nil, err
	}
	if len(in.Jobs) == 0 {
		return emptyAllocation(in), nil
	}
	w := ctx.floats(len(in.Jobs))
	for m := range w {
		w[m] = 1
	}
	return ctx.normalizedThroughput("maxtput", in, w)
}
