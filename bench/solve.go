package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"gavel/internal/cluster"
	"gavel/internal/core"
	"gavel/internal/lp"
	"gavel/internal/obs"
	"gavel/internal/policy"
	"gavel/internal/scheduler"
	"gavel/internal/workload"
)

func lpDefaults() lp.Options {
	return lp.Options{Engine: lp.Revised, Pricing: lp.PricingDevex, Presolve: lp.PresolveOn, Dual: lp.DualOn}
}

// scenario is how a ladder cell disturbs its problem between warm resets.
type scenario int

const (
	// churn: the oldest job departs and a new one arrives, so the LP's
	// column set changes and the warm solve must remap its basis.
	churn scenario = iota
	// perturb: every observed throughput moves by up to 1 %, job set fixed
	// (positional warm start, primal repair).
	perturb
	// drift: per-type capacity moves by up to 2 %, job set and throughputs
	// fixed (right-hand side only: the dual simplex's case).
	drift
)

// cell is one rung of the ladder: a policy at a job count on the
// n/4-devices-per-type cluster, solved cold a few times (a fresh solve
// context each) and then warm through a run of disturbances.
type cell struct {
	key      string // names the cell's policy.<key>_{cold,<scenario>}_ms metrics
	policy   func() policy.Policy
	jobs     int
	cold     int
	warm     int
	scenario scenario
	warmName string
}

// ladder is solve_scale's fixed work list. Repetition counts are sized so a
// pass takes about six seconds on the reference box and holds more than 200
// resets (so at least ten lie beyond the reported p95).
var ladder = []cell{
	{"maxmin_1024", func() policy.Policy { return &policy.MaxMinFairness{} }, 1024, 2, 12, churn, "churn"},
	{"maxmin_256", func() policy.Policy { return &policy.MaxMinFairness{} }, 256, 8, 40, churn, "churn"},
	{"ftf_256", func() policy.Policy { return &policy.FinishTimeFairness{} }, 256, 2, 10, churn, "churn"},
	{"cost_4096", func() policy.Policy { return &policy.MinCost{} }, 4096, 6, 16, drift, "drift"},
	{"cost_1024", func() policy.Policy { return &policy.MinCost{} }, 1024, 1, 64, perturb, "perturb"},
	{"hier_128", func() policy.Policy { return &policy.Hierarchical{} }, 128, 1, 40, perturb, "warm"},
}

const roundsPerReset = 4

// solvePass runs the ladder straight on the layers: core.ThroughputCache →
// Policy.Allocate with a SolveContext → scheduler.Mechanism rounds.
type solvePass struct {
	cfg   passCfg
	tr    *tracer
	plane *obs.Plane
	lpm   *obs.LPMetrics
	out   *passOut
	dig   *digest
	zoo   []workload.Config

	cellMs      map[string][]float64
	allocMs     []float64
	unitsMs     []float64
	cacheUs     []float64
	assignUs    []float64
	recordUs    []float64
	assignments int
	round       int64
}

func prepareSolve(cfg passCfg) (pass, error) {
	p := &solvePass{cfg: cfg, out: &passOut{layer: map[string]float64{}}, dig: newDigest(), cellMs: map[string][]float64{}}
	// The seed orders the model zoo; job m of every cell runs model
	// order[m mod 26], so each cell holds the same model mix under every
	// seed.
	zoo := workload.Zoo()
	for _, i := range rand.New(rand.NewSource(cfg.seed*6151 + 3)).Perm(len(zoo)) {
		p.zoo = append(p.zoo, zoo[i])
	}
	if cfg.traced {
		p.tr = newTracer()
		p.plane = &obs.Plane{Reg: obs.NewRegistry(), Tr: obs.NewTracer(1 << 12)}
		p.lpm = obs.NewLPMetrics(p.plane.Registry())
	}
	return p, nil
}

func (p *solvePass) tput(id int) []float64 {
	cfg := p.zoo[id%len(p.zoo)]
	row := make([]float64, workload.NumTypes)
	for t := range row {
		if workload.Fits(cfg, t) {
			row[t] = workload.Throughput(cfg, t)
		}
	}
	return row
}

func (p *solvePass) newContext() *policy.SolveContext {
	ctx := policy.NewSolveContextWith(lpOptions)
	ctx.Metrics = p.lpm
	return ctx
}

// retire folds a finished context's solve accounting into the pass's counts.
func (p *solvePass) retire(ctx *policy.SolveContext) {
	if ctx != nil {
		lpStats(ctx.Stats, p.out.layer)
	}
}

func (p *solvePass) run() error {
	p.out.t0 = time.Now()
	p.tr.start(p.out.t0)
	// Warm-up passes (scale 1/4) keep the full problem sizes so the heap
	// grows to its working size; only below that do sizes shrink too.
	sizeScale := math.Min(1, 4*p.cfg.scale)
	for ci, c := range ladder {
		n := scaled(c.jobs, sizeScale, 8)
		if err := p.runCell(c, ci, n, scaled(c.cold, p.cfg.scale, 1), scaled(c.warm, p.cfg.scale, 1)); err != nil {
			return fmt.Errorf("cell %s: %w", c.key, err)
		}
	}
	return nil
}

func (p *solvePass) cacheOp(f func()) {
	start := time.Now()
	f()
	p.cacheUs = append(p.cacheUs, us(time.Since(start)))
}

func (p *solvePass) runCell(c cell, ci, n, cold, warm int) error {
	per := n / 4
	if per < 1 {
		per = 1
	}
	workerInts := []int{per, per, per}
	workers := []float64{float64(per), float64(per), float64(per)}
	prices := []float64{cluster.PriceV100, cluster.PriceP100, cluster.PriceK80}
	rng := rand.New(rand.NewSource(p.cfg.seed*7877 + int64(ci)))
	pol := &timedPolicy{inner: c.policy(), tr: p.tr}
	mech := scheduler.New(workload.NumTypes, []int{8, 8, 8})

	cache := core.NewThroughputCache(workload.NumTypes)
	ids := make([]int, 0, n)
	for id := 0; id < n; id++ {
		row := p.tput(id)
		p.cacheOp(func() { cache.AddJob(id, 1, row) })
		ids = append(ids, id)
	}
	nextID := n

	var ctx *policy.SolveContext
	for r := 0; r < cold+warm; r++ {
		p.round++
		p.tr.setRound(p.round)
		evStart := time.Now()
		ev := p.tr.begin("ladder.reset")
		kind := "cold"
		if r < cold {
			p.retire(ctx)
			ctx = p.newContext()
		} else {
			kind = c.warmName
			switch c.scenario {
			case churn:
				gone := ids[0]
				ids = append(ids[1:], nextID)
				row := p.tput(nextID)
				p.cacheOp(func() { cache.RemoveJob(gone) })
				p.cacheOp(func() { cache.AddJob(nextID, 1, row) })
				nextID++
			case perturb:
				for _, id := range ids {
					row := append([]float64(nil), cache.JobTput(id)...)
					for t, v := range row {
						if v > 0 {
							row[t] = v * (1 + 0.01*(2*rng.Float64()-1))
						}
					}
					p.cacheOp(func() { cache.ObserveJob(id, row) })
				}
			case drift:
				for t := range workers {
					workers[t] = float64(per) * (1 + 0.02*(2*rng.Float64()-1))
				}
			}
		}

		sp := p.tr.begin("core.units")
		start := time.Now()
		units := cache.Units(ids, 1.05, 0)
		p.unitsMs = append(p.unitsMs, ms(time.Since(start)))
		p.tr.end(sp)

		in := &policy.Input{Units: units, Workers: workers, Prices: prices}
		for _, id := range ids {
			in.Jobs = append(in.Jobs, policy.JobInfo{
				ID: id, Weight: 1 + 0.01*float64(id%997), Priority: 1, ScaleFactor: 1,
				Tput: cache.JobTput(id), RemainingSteps: 1e6, TotalSteps: 2e6,
				Elapsed: 3600, ArrivalSeq: id, Entity: id % 4, NumActiveJobs: len(ids),
			})
		}
		alloc, err := pol.Allocate(in, ctx)
		if err != nil {
			return err
		}
		solveMs := pol.ms[len(pol.ms)-1]
		p.allocMs = append(p.allocMs, solveMs)
		p.cellMs[c.key+"_"+kind] = append(p.cellMs[c.key+"_"+kind], solveMs)
		mech.ResetReceived()

		jobIDs := func(u int) []int {
			out := make([]int, len(alloc.Units[u].Jobs))
			for k, local := range alloc.Units[u].Jobs {
				out[k] = ids[local]
			}
			return out
		}
		one := func(int) int { return 1 }
		for k := 0; k < roundsPerReset; k++ {
			if k > 0 {
				evStart = time.Now()
				ev = p.tr.begin("ladder.round")
			}
			sp := p.tr.begin("scheduler.assign")
			start := time.Now()
			assigns, err := mech.Assign(alloc, scheduler.Workers{Free: workerInts}, one, jobIDs)
			p.assignUs = append(p.assignUs, us(time.Since(start)))
			p.tr.end(sp)
			if err != nil {
				return err
			}
			sp = p.tr.begin("scheduler.record")
			start = time.Now()
			mech.RecordRound(alloc, assigns, 360, jobIDs)
			p.recordUs = append(p.recordUs, us(time.Since(start)))
			p.tr.end(sp)
			p.tr.end(ev)
			p.out.roundMs = append(p.out.roundMs, ms(time.Since(evStart)))
			p.out.reset = append(p.out.reset, k == 0)

			// Output checks sit between events, outside every timed span.
			if err := scheduler.WithinBudget(scheduler.UsedWorkers(assigns, one, workload.NumTypes), workerInts); err != nil {
				p.out.fail("cell %s reset %d round %d: %v", c.key, r, k, err)
			}
			p.assignments += len(assigns)
			p.dig.int(len(assigns))
			for _, a := range assigns {
				p.dig.int(a.UnitIdx*4 + a.Type)
			}
		}
		if err := validSingles(alloc, workers); err != nil {
			p.out.fail("cell %s reset %d: invalid allocation: %v", c.key, r, err)
		}
		for _, row := range alloc.X {
			for _, x := range row {
				p.dig.float(x)
			}
		}
	}
	p.retire(ctx)
	return nil
}

// validSingles checks an allocation over single-job, single-worker units:
// no negative share, no unit scheduled more than all of the time, no type
// handed out beyond its capacity. (core.Allocation.Validate checks the same
// per job by scanning every unit, quadratic at 4096 jobs.)
func validSingles(alloc *core.Allocation, workers []float64) error {
	const eps = 1e-6
	used := make([]float64, len(workers))
	for u, row := range alloc.X {
		total := 0.0
		for t, x := range row {
			if x < -eps || math.IsNaN(x) {
				return fmt.Errorf("unit %d type %d: share %v", u, t, x)
			}
			total += x
			used[t] += x
		}
		if total > 1+eps {
			return fmt.Errorf("unit %d scheduled %v of the time", u, total)
		}
	}
	for t, w := range workers {
		if used[t] > w*(1+eps)+eps {
			return fmt.Errorf("type %d: %v devices allocated of %v", t, used[t], w)
		}
	}
	return nil
}

func (p *solvePass) finish() (*passOut, error) {
	out := p.out
	out.digest = p.dig.sum()
	out.ops = len(out.roundMs)
	l := out.layer
	resets := 0
	for _, r := range out.reset {
		if r {
			resets++
		}
	}
	l["policy.allocate_calls"] = float64(len(p.allocMs))
	l["core.units_calls"] = float64(len(p.unitsMs))
	l["scheduler.assignments"] = float64(p.assignments)
	lpDerived(l)
	if resets != len(p.allocMs) {
		out.fail("%d reset events for %d Allocate calls", resets, len(p.allocMs))
	}
	if p.tr != nil {
		l["policy.allocate_ms_sum"] = sum(p.allocMs)
		l["policy.allocate_ms_p50"] = median(p.allocMs)
		for k, v := range p.cellMs {
			l["policy."+k+"_ms"] = median(v)
		}
		l["core.units_ms_sum"] = sum(p.unitsMs)
		l["core.cache_update_us_p50"] = median(p.cacheUs)
		l["scheduler.assign_us_p50"] = median(p.assignUs)
		l["scheduler.record_us_p50"] = median(p.recordUs)
		want := l["lp.solves"]
		lpCounts(p.plane.Registry(), l)
		if l["lp.solves"] != want {
			out.fail("obs registry counted %v LP solves, solve contexts %v", l["lp.solves"], want)
		}
		l["policy.self_ms_sum"] = l["policy.allocate_ms_sum"] - l["lp.solve_ms_sum"]
		out.spans = p.tr.spans
		out.program = p.plane.Tracer().Spans()
	}
	return out, nil
}
