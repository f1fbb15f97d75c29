package policy

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"gavel/internal/core"
	"gavel/internal/lp"
	"gavel/internal/obs"
	"gavel/internal/workload"
)

// churnInput builds a policy input for the given external job IDs with
// stable, keyed units — the shape the simulator produces via
// ThroughputCache.Units.
func churnInput(ids []int, workers []float64) *Input {
	zoo := workload.Zoo()
	in := &Input{Workers: workers, Prices: []float64{3.06, 1.46, 0.9}}
	for m, id := range ids {
		cfg := zoo[id%len(zoo)]
		tput := make([]float64, len(workers))
		for t := range tput {
			if workload.Fits(cfg, t) {
				tput[t] = workload.Throughput(cfg, t)
			}
		}
		in.Jobs = append(in.Jobs, JobInfo{
			ID: id, Weight: 1 + 0.01*float64(id), Priority: 1, ScaleFactor: 1,
			Tput: tput, RemainingSteps: 1e6, TotalSteps: 2e6,
			Elapsed: 3600, ArrivalSeq: id, NumActiveJobs: len(ids),
		})
		in.Units = append(in.Units, core.Single(m, tput).Keyed(core.JobKey(id)))
	}
	return in
}

// TestSolveContextRemapsAcrossJobChurn drives policies through a sequence of
// job arrivals and departures (including a simultaneous arrival+departure
// that preserves the variable count) and checks that (a) the context takes
// the remapped path, and (b) every allocation matches the stateless cold
// path within 1e-6.
func TestSolveContextRemapsAcrossJobChurn(t *testing.T) {
	workers := []float64{8, 8, 8}
	steps := [][]int{
		{1, 2, 3, 4, 5, 6, 7, 8},
		{1, 2, 3, 4, 5, 6, 7, 8, 9},    // arrival
		{1, 2, 4, 5, 6, 7, 8, 9},       // departure
		{1, 2, 4, 5, 6, 7, 8, 10},      // simultaneous arrival + departure
		{2, 4, 5, 6, 7, 8, 10, 11, 12}, // departure + two arrivals
	}
	// compare checks warm-vs-cold agreement on the policy's own objective.
	// Exact per-job throughputs are compared where distinct weights make the
	// optimum unique (max-min, makespan's refinement); MinCost's per-job
	// throughputs are not unique (time can shift between jobs with equal
	// normalized throughput per dollar), so the invariant there is the
	// objective ratio; FTF's feasibility LPs likewise have alternate optima,
	// so the invariant is the finish-time-fairness ratio within the binary
	// search tolerance.
	policies := []struct {
		pol     Policy
		compare func(t *testing.T, si int, in *Input, warm, cold *core.Allocation)
	}{
		{&MaxMinFairness{}, compareThroughputs},
		{Makespan{}, compareThroughputs},
		{&MinCost{}, func(t *testing.T, si int, in *Input, warm, cold *core.Allocation) {
			t.Helper()
			w, c := costRatio(in, warm), costRatio(in, cold)
			if d := math.Abs(w - c); d > 1e-6*(1+math.Abs(c)) {
				t.Fatalf("step %d: warm throughput/dollar %v, cold %v", si, w, c)
			}
		}},
		{&FinishTimeFairness{}, func(t *testing.T, si int, in *Input, warm, cold *core.Allocation) {
			t.Helper()
			w, c := maxRho(in, warm), maxRho(in, cold)
			if d := math.Abs(w - c); d > 2e-3*(1+math.Abs(c)) {
				t.Fatalf("step %d: warm max rho %v, cold %v", si, w, c)
			}
		}},
	}
	for _, pc := range policies {
		t.Run(pc.pol.Name(), func(t *testing.T) {
			ctx := NewSolveContext()
			for si, ids := range steps {
				in := churnInput(ids, workers)
				warm, err := pc.pol.Allocate(in, ctx)
				if err != nil {
					t.Fatalf("step %d warm: %v", si, err)
				}
				cold, err := pc.pol.Allocate(churnInput(ids, workers), nil)
				if err != nil {
					t.Fatalf("step %d cold: %v", si, err)
				}
				pc.compare(t, si, in, warm, cold)
			}
			if ctx.Stats.RemapHits == 0 {
				t.Fatalf("no remapped solves across churn steps: %+v", ctx.Stats)
			}
			t.Logf("stats: %+v", ctx.Stats)
		})
	}
}

func compareThroughputs(t *testing.T, si int, in *Input, warm, cold *core.Allocation) {
	t.Helper()
	for m := range in.Jobs {
		w, c := warm.EffectiveThroughput(m), cold.EffectiveThroughput(m)
		if d := math.Abs(w - c); d > 1e-6*(1+math.Abs(c)) {
			t.Fatalf("step %d job %d: warm throughput %v, cold %v", si, in.Jobs[m].ID, w, c)
		}
	}
}

// costRatio recomputes MinCost's objective — total normalized throughput
// per dollar — for an allocation.
func costRatio(in *Input, alloc *core.Allocation) float64 {
	num, den := 0.0, 0.0
	for m := range in.Jobs {
		fastest := core.MaxThroughput(in.Jobs[m].Tput)
		if core.Finite(fastest) {
			num += alloc.EffectiveThroughput(m) / fastest
		}
	}
	for ui := range alloc.Units {
		for j, x := range alloc.X[ui] {
			den += x * in.Prices[j]
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

func maxRho(in *Input, alloc *core.Allocation) float64 {
	worst := 0.0
	for m := range in.Jobs {
		if r := RhoValue(in, alloc, m); r > worst {
			worst = r
		}
	}
	return worst
}

// TestSolveContextEmptyToNonempty covers the empty-to-nonempty job set edge
// at the policy layer: an Allocate over zero jobs (no LP at all) followed by
// a populated one must run cold then start caching normally.
func TestSolveContextEmptyToNonempty(t *testing.T) {
	workers := []float64{4, 4, 4}
	ctx := NewSolveContext()
	pol := &MaxMinFairness{}

	empty, err := pol.Allocate(churnInput(nil, workers), ctx)
	if err != nil {
		t.Fatalf("empty allocate: %v", err)
	}
	for u := range empty.X {
		for _, x := range empty.X[u] {
			if x != 0 {
				t.Fatal("empty job set produced a nonzero allocation")
			}
		}
	}
	if ctx.Stats.Solves != 0 {
		t.Fatalf("empty job set issued %d LP solves", ctx.Stats.Solves)
	}

	if _, err := pol.Allocate(churnInput([]int{1, 2, 3}, workers), ctx); err != nil {
		t.Fatalf("first real allocate: %v", err)
	}
	if ctx.Stats.WarmHits+ctx.Stats.RemapHits != 0 {
		t.Fatalf("first populated solve cannot be warm: %+v", ctx.Stats)
	}
	if _, err := pol.Allocate(churnInput([]int{1, 2, 3, 4}, workers), ctx); err != nil {
		t.Fatalf("arrival allocate: %v", err)
	}
	if ctx.Stats.RemapHits == 0 {
		t.Fatalf("arrival after first solve did not remap: %+v", ctx.Stats)
	}
}

// TestSolveContextAllJobsDepart checks the all-departing edge: the whole job
// set is replaced at once, so no allocation column survives the remap — only
// the policy's job-independent scalar (max-min's floor t) can carry over —
// and the solves must still match the stateless cold path exactly.
func TestSolveContextAllJobsDepart(t *testing.T) {
	workers := []float64{4, 4, 4}
	ctx := NewSolveContext()
	pol := &MaxMinFairness{}
	if _, err := pol.Allocate(churnInput([]int{1, 2, 3}, workers), ctx); err != nil {
		t.Fatal(err)
	}
	before := ctx.Stats

	fresh := []int{21, 22, 23}
	warm, err := pol.Allocate(churnInput(fresh, workers), ctx)
	if err != nil {
		t.Fatal(err)
	}
	if attempts := ctx.Stats.RemapAttempts - before.RemapAttempts; attempts == 0 {
		t.Fatalf("disjoint job set never attempted a remap: %+v", ctx.Stats)
	}
	cold, err := pol.Allocate(churnInput(fresh, workers), nil)
	if err != nil {
		t.Fatal(err)
	}
	for m := range fresh {
		w, c := warm.EffectiveThroughput(m), cold.EffectiveThroughput(m)
		if d := math.Abs(w - c); d > 1e-6*(1+math.Abs(c)) {
			t.Fatalf("job %d: context throughput %v, cold %v", fresh[m], w, c)
		}
	}
}

// TestSolveContextIterationSavingsUnderChurn measures the point of the
// remap: a churned sequence (25% of resets change the job set) must spend
// materially fewer simplex iterations with the context than cold.
func TestSolveContextIterationSavingsUnderChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("churn savings measurement is not -short")
	}
	workers := []float64{16, 16, 16}
	ids := make([]int, 64)
	for i := range ids {
		ids[i] = i
	}
	nextID := len(ids)
	run := func(noWarm bool) SolveStats {
		ctx := NewSolveContext()
		ctx.NoWarm = noWarm
		pol := &MaxMinFairness{}
		cur := append([]int(nil), ids...)
		next := nextID
		for step := 0; step < 16; step++ {
			if step%4 == 1 { // 25% of resets change the job set
				cur = append(cur[1:len(cur):len(cur)], next)
				next++
			}
			if _, err := pol.Allocate(churnInput(cur, workers), ctx); err != nil {
				t.Fatal(err)
			}
		}
		return ctx.Stats
	}
	warm := run(false)
	cold := run(true)
	if warm.RemapHits == 0 {
		t.Fatalf("churn run never remapped: %+v", warm)
	}
	saving := 1 - float64(warm.Iterations)/float64(cold.Iterations)
	t.Logf("iterations warm=%d cold=%d (%.0f%% saved; %+v)", warm.Iterations, cold.Iterations, 100*saving, warm)
	if saving < 0.5 {
		t.Errorf("churned warm pipeline saved only %.0f%% of iterations (want >= 50%%)", 100*saving)
	}
}

// failNextAttempts makes the next n engine attempts in the scratch the next
// Allocate borrows report failure: the free list is LIFO, so the scratch
// returned here is the one handed out next (the package's tests are serial).
// lp.Workspace keeps that counter unexported on purpose — nothing outside a
// test may set it — and a policy builds its own lp.Problem, so this test
// reaches through the one door there is.
func failNextAttempts(n int) { failAttemptsAfter(0, n) }

// failAttemptsAfter is failNextAttempts with the first pass attempts let
// through: a policy's first solve runs, its later ones fail.
func failAttemptsAfter(pass, n int) {
	c := new(SolveContext)
	c.lend()
	ws := reflect.ValueOf(&c.scratch.ws).Elem()
	for name, v := range map[string]int{"passNext": pass, "failNext": n} {
		f := ws.FieldByName(name)
		*(*int)(unsafe.Pointer(f.UnsafeAddr())) = v
	}
	c.giveBack(nil)
}

// TestSolveOutsideAllocateGivesBack: a Solve issued outside any Allocate
// borrows a scratch for the call alone, and the caller's problem does not
// keep pointing into it once it is back on the free list.
func TestSolveOutsideAllocateGivesBack(t *testing.T) {
	ctx := NewSolveContext()
	p := lp.NewProblem(lp.Maximize)
	x := p.AddVar(1, "x")
	p.AddConstraintRow([]lp.Term{{Var: x, Coeff: 1}}, lp.LE, 3, "cap")
	res, err := ctx.Solve("bare", p, nil)
	if err != nil || res.Status != lp.Optimal || res.X[x] != 3 {
		t.Fatalf("got (%+v, %v), want x = 3", res, err)
	}
	if ctx.scratch != nil {
		t.Fatal("the context kept its scratch after the call")
	}
	if !reflect.ValueOf(p).Elem().FieldByName("ws").IsNil() {
		t.Fatal("the problem still points into a returned workspace")
	}
}

// TestRecoveryResolve follows an engine failure up through the policy layer.
// One failed attempt is answered by the raw cold re-solve: same allocation,
// counted once in SolveStats.Fallbacks and once under kind="fallback". Two
// reach the policy's caller as lp.ErrNumerical — an error, not an allocation
// of zeros.
func TestRecoveryResolve(t *testing.T) {
	workers := []float64{4, 4, 4}
	in := churnInput([]int{1, 2, 3, 4, 5}, workers)
	pol := &MaxMinFairness{}
	want, err := pol.Allocate(in, NewSolveContext())
	if err != nil {
		t.Fatal(err)
	}

	ctx := NewSolveContext()
	ctx.Metrics = obs.NewLPMetrics(obs.NewRegistry())
	failNextAttempts(1)
	got, err := pol.Allocate(in, ctx)
	if err != nil {
		t.Fatal(err)
	}
	compareThroughputs(t, 0, in, got, want)
	if ctx.Stats.Fallbacks != 1 {
		t.Fatalf("Fallbacks = %d after one recovered solve, want 1 (%+v)", ctx.Stats.Fallbacks, ctx.Stats)
	}
	if n := ctx.Metrics.Solves.With("fallback").Value(); n != 1 {
		t.Fatalf(`gavel_lp_solves_total{kind="fallback"} = %d, want 1`, n)
	}

	failNextAttempts(2)
	got, err = pol.Allocate(in, ctx)
	if !errors.Is(err, lp.ErrNumerical) || got != nil {
		t.Fatalf("want (nil, lp.ErrNumerical), got (%v, %v)", got, err)
	}
	if ctx.Stats.Fallbacks != 1 {
		t.Fatalf("a solve with no answer counted as a fallback: %+v", ctx.Stats)
	}
}
