package main

import (
	"math"
	"runtime"
	"time"

	"gavel/internal/cluster"
	"gavel/internal/core"
	"gavel/internal/obs"
	"gavel/internal/policy"
	"gavel/internal/scheduler"
	"gavel/internal/simulator"
	"gavel/internal/workload"
)

// lpOptions pins every solver knob explicitly (the package defaults, spelled
// out), so a GAVEL_LP_* variable in the caller's environment cannot change
// what the benchmark measures.
var lpOptions = lpDefaults()

// timedPolicy decorates a policy.Policy: the layer boundary between
// whatever drives resets (simulator, ladder) and the policy/lp stack.
type timedPolicy struct {
	inner policy.Policy
	tr    *tracer
	ms    []float64 // one per Allocate call
	dirty bool      // a solve ran since the round recorder last looked
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Allocate(in *policy.Input, ctx *policy.SolveContext) (*core.Allocation, error) {
	id := p.tr.begin("policy.allocate")
	start := time.Now()
	alloc, err := p.inner.Allocate(in, ctx)
	p.ms = append(p.ms, ms(time.Since(start)))
	p.tr.end(id)
	p.dirty = true
	return alloc, err
}

// timedProvider decorates the simulator's throughput provider (traced pass
// only: it is called once per job, pair and type, too often to time for
// free).
type timedProvider struct {
	inner simulator.Oracle
	calls int
	ns    int64
}

func (p *timedProvider) StableEstimates() bool { return p.inner.StableEstimates() }

func (p *timedProvider) Isolated(job *workload.Job, j int) float64 {
	start := time.Now()
	v := p.inner.Isolated(job, j)
	p.ns += time.Since(start).Nanoseconds()
	p.calls++
	return v
}

func (p *timedProvider) Colocated(a, b *workload.Job, j int) (float64, float64, bool) {
	start := time.Now()
	ta, tb, ok := p.inner.Colocated(a, b, j)
	p.ns += time.Since(start).Nanoseconds()
	p.calls++
	return ta, tb, ok
}

func (p *timedProvider) Observe(a, b *workload.Job, j int, ta, tb float64) {
	p.inner.Observe(a, b, j, ta, tb)
}

// lpCounts reads the LP series a traced pass registered on its obs plane:
// the same instruments /metrics serves, read once at the end of the pass.
func lpCounts(reg *obs.Registry, layer map[string]float64) {
	m := obs.NewLPMetrics(reg) // re-registration returns the live series
	warm := float64(m.Solves.With("warm").Value())
	remap := float64(m.Solves.With("remap").Value())
	cold := float64(m.Solves.With("cold").Value())
	solves := warm + remap + cold
	layer["lp.solves"] = solves
	layer["lp.warm_solves"] = warm
	layer["lp.remapped_solves"] = remap
	layer["lp.cold_solves"] = cold
	layer["lp.fallbacks"] = float64(m.Solves.With("fallback").Value())
	layer["lp.iterations"] = float64(m.Iterations.Value())
	layer["lp.dual_iterations"] = float64(m.DualIterations.Value())
	layer["lp.refactorizations"] = float64(m.Refactorizations.Value())
	layer["lp.presolve_reductions"] = float64(m.PresolveReductions.Value())
	layer["lp.solve_ms_sum"] = m.SolveSeconds.Sum() * 1e3
	lpDerived(layer)
}

// lpStats fills the LP counts from a solve context's accounting (available
// in every pass, traced or not).
func lpStats(st policy.SolveStats, layer map[string]float64) {
	layer["lp.solves"] += float64(st.Solves)
	layer["lp.warm_solves"] += float64(st.WarmHits)
	layer["lp.remapped_solves"] += float64(st.RemapHits)
	layer["lp.cold_solves"] += float64(st.Solves - st.WarmHits - st.RemapHits)
	layer["lp.fallbacks"] += float64(st.Fallbacks)
	layer["lp.iterations"] += float64(st.Iterations)
	layer["lp.dual_iterations"] += float64(st.DualIterations)
	layer["lp.refactorizations"] += float64(st.Refactorizations)
	layer["lp.presolve_reductions"] += float64(st.PresolveReductions)
}

func lpDerived(layer map[string]float64) {
	if s := layer["lp.solves"]; s > 0 {
		layer["lp.warm_hit_ratio"] = (layer["lp.warm_solves"] + layer["lp.remapped_solves"]) / s
	}
	if it := layer["lp.iterations"]; it > 0 && layer["lp.solve_ms_sum"] > 0 {
		layer["lp.us_per_iteration"] = layer["lp.solve_ms_sum"] * 1e3 / it
	}
}

// simPass is one run of the monolithic simulator.
type simPass struct {
	cfg   simulator.Config
	trace []workload.Job
	pol   *timedPolicy
	prov  *timedProvider
	plane *obs.Plane
	tr    *tracer
	out   *passOut

	budget     []int
	last       time.Time
	openRound  int
	assigns    int
	goroutines int
	res        *simulator.Result
	wall       time.Duration
}

// simJobs and simLambda size sim_las_ss: 12 blocks of the 26-model zoo
// arriving at 6 jobs/hour on the 108-GPU cluster.
const (
	simJobs   = 16 * 26
	simLambda = 6.0
)

func prepareSim(cfg passCfg) (pass, error) {
	p := &simPass{out: &passOut{layer: map[string]float64{}}}
	p.trace = simTrace(cfg.seed, scaled(simJobs, cfg.scale, 8), simLambda)
	p.pol = &timedPolicy{inner: &policy.MaxMinFairness{}}
	spec := cluster.Simulated108()
	for _, t := range spec.Types {
		p.budget = append(p.budget, t.Count)
	}
	p.cfg = simulator.Config{
		Cluster:      spec,
		Policy:       p.pol,
		Trace:        p.trace,
		SpaceSharing: true,
		LPOptions:    lpOptions,
		Seed:         cfg.seed,
		OnRound:      p.onRound,
	}
	if cfg.traced {
		p.tr = newTracer()
		p.pol.tr = p.tr
		p.plane = &obs.Plane{Reg: obs.NewRegistry(), Tr: obs.NewTracer(1 << 16)}
		p.cfg.Obs = p.plane
		p.prov = &timedProvider{}
		p.cfg.Provider = p.prov
	}
	return p, nil
}

// onRound closes round i: everything since the previous hook (the previous
// round's progress accounting, this round's allocation if a reset fired,
// its Assign and RecordRound) is round i's cost.
func (p *simPass) onRound(now float64, alloc *core.Allocation, active []int, assigns []scheduler.Assignment) {
	t := time.Now()
	p.out.roundMs = append(p.out.roundMs, ms(t.Sub(p.last)))
	p.out.reset = append(p.out.reset, p.pol.dirty)
	p.pol.dirty = false
	p.tr.end(p.openRound)

	// Invariant: the round never hands out more devices of a type than the
	// cluster has. The simulator's trace indices are ours (both sorted by
	// arrival).
	sf := func(u int) int {
		v := 1
		for _, local := range alloc.Units[u].Jobs {
			if s := p.trace[active[local]].ScaleFactor; s > v {
				v = s
			}
		}
		return v
	}
	if err := scheduler.WithinBudget(scheduler.UsedWorkers(assigns, sf, len(p.budget)), p.budget); err != nil {
		p.out.fail("round %d: %v", len(p.out.roundMs), err)
	}
	p.assigns += len(assigns)
	if g := runtime.NumGoroutine(); g > p.goroutines {
		p.goroutines = g
	}

	p.tr.setRound(int64(len(p.out.roundMs) + 1))
	p.openRound = p.tr.begin("simulator.round")
	p.last = time.Now()
}

func (p *simPass) run() error {
	p.out.t0 = time.Now()
	p.tr.start(p.out.t0)
	p.tr.setRound(1)
	p.openRound = p.tr.begin("simulator.round")
	start := time.Now()
	p.last = start
	res, err := simulator.Run(p.cfg)
	p.wall = time.Since(start)
	p.tr.end(p.openRound) // the tail after the last hook: final progress accounting
	p.res = res
	return err
}

func (p *simPass) finish() (*passOut, error) {
	out, res := p.out, p.res
	if res == nil {
		return out, nil
	}
	d := newDigest()
	d.int(res.Rounds)
	d.int(res.PolicyCalls)
	d.int(res.LPSolves)
	d.float(res.TotalCost)
	preempt := 0
	for _, j := range res.Jobs {
		d.int(j.ID)
		d.float(j.Completion)
		d.int(j.Preemptions)
		preempt += j.Preemptions
	}
	out.digest = d.sum()
	out.ops = res.Rounds
	if res.Unfinished != 0 {
		out.fail("%d jobs unfinished", res.Unfinished)
	}
	if res.Rounds != len(out.roundMs) {
		out.fail("simulator counted %d rounds, hook saw %d", res.Rounds, len(out.roundMs))
	}

	l := out.layer
	resets := 0
	var quiet []float64
	for i, r := range out.reset {
		if r {
			resets++
		} else {
			quiet = append(quiet, out.roundMs[i]*1e3)
		}
	}
	l["simulator.rounds"] = float64(res.Rounds)
	l["simulator.resets"] = float64(resets)
	l["policy.allocate_calls"] = float64(len(p.pol.ms))
	l["scheduler.assignments"] = float64(p.assigns)
	l["scheduler.preemptions"] = float64(preempt)
	l["quality.avg_jct_h"] = res.AvgJCT(0)
	l["quality.makespan_h"] = res.Makespan / 3600
	l["quality.unfinished"] = float64(res.Unfinished)
	l["runtime.goroutines_max"] = float64(p.goroutines)
	if math.IsNaN(l["quality.avg_jct_h"]) {
		l["quality.avg_jct_h"] = 0
	}
	l["lp.solves"] = float64(res.LPSolves)
	l["lp.warm_solves"] = float64(res.WarmSolves)
	l["lp.remapped_solves"] = float64(res.RemappedSolves)
	l["lp.cold_solves"] = float64(res.LPSolves - res.WarmSolves - res.RemappedSolves)
	l["lp.fallbacks"] = float64(res.EngineFallbacks)
	l["lp.iterations"] = float64(res.SimplexIterations)
	l["lp.dual_iterations"] = float64(res.DualIterations)
	l["lp.presolve_reductions"] = float64(res.PresolveReductions)
	lpDerived(l)

	if p.tr != nil {
		wallMs := ms(p.wall)
		l["simulator.self_ms_sum"] = wallMs - ms(res.PolicyTime)
		l["simulator.quiet_round_us_p50"] = median(quiet)
		l["policy.allocate_ms_sum"] = sum(p.pol.ms)
		l["policy.allocate_ms_p50"] = median(p.pol.ms)
		lpCounts(p.plane.Registry(), l)
		if got := float64(res.LPSolves); l["lp.solves"] != got {
			out.fail("obs registry counted %v LP solves, simulator.Result %v", l["lp.solves"], got)
		}
		l["policy.self_ms_sum"] = l["policy.allocate_ms_sum"] - l["lp.solve_ms_sum"]
		l["workload.provider_calls"] = float64(p.prov.calls)
		l["workload.provider_ms_sum"] = float64(p.prov.ns) / 1e6
		out.spans = p.tr.spans
		out.program = p.plane.Tracer().Spans()
	}
	return out, nil
}
