package policy

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gavel/internal/core"
)

// paperExampleInput is the §4.1 worked example: 3 jobs with V100/K80
// speedups 4/3/2 vs 1, on a cluster with 1 V100 and 1 K80.
func paperExampleInput() *Input {
	tputs := [][]float64{{4, 1}, {3, 1}, {2, 1}}
	in := &Input{Workers: []float64{1, 1}, Prices: []float64{2.48, 0.45}}
	for m, tp := range tputs {
		in.Jobs = append(in.Jobs, JobInfo{
			ID: m, Weight: 1, Priority: 1, ScaleFactor: 1,
			Tput: tp, RemainingSteps: 1000, TotalSteps: 1000,
			ArrivalSeq: m, Entity: -1, NumActiveJobs: 3,
		})
		in.Units = append(in.Units, core.Single(m, tp))
	}
	return in
}

func randomInput(rng *rand.Rand, nJobs, nTypes int) *Input {
	in := &Input{
		Workers: make([]float64, nTypes),
		Prices:  make([]float64, nTypes),
	}
	for j := range in.Workers {
		in.Workers[j] = float64(1 + rng.Intn(5))
		in.Prices[j] = 0.4 + rng.Float64()*2
	}
	for m := 0; m < nJobs; m++ {
		tput := make([]float64, nTypes)
		for j := range tput {
			if rng.Float64() < 0.9 {
				tput[j] = 0.5 + rng.Float64()*8
			}
		}
		in.Jobs = append(in.Jobs, JobInfo{
			ID: m, Weight: 1, Priority: 1, ScaleFactor: 1,
			Tput: tput, RemainingSteps: 100 + rng.Float64()*1e5,
			TotalSteps: 2e5, Elapsed: rng.Float64() * 1e4,
			ArrivalSeq: m, Entity: m % 2, NumActiveJobs: nJobs,
		})
		in.Units = append(in.Units, core.Single(m, tput))
	}
	return in
}

func TestMaxMinPaperExample(t *testing.T) {
	in := paperExampleInput()
	alloc, err := (&MaxMinFairness{}).Allocate(in, nil)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := alloc.Validate(in.scaleFactors(), in.Workers); err != nil {
		t.Fatalf("invalid allocation: %v", err)
	}
	// The paper reports ~10% improvement over the isolated (1/3 share)
	// allocation for every job.
	for m := range in.Jobs {
		norm := core.EqualShareThroughput(in.Jobs[m].Tput, in.Workers)
		rel := alloc.EffectiveThroughput(m) * 3 / norm // vs 1/3 share
		if rel < 1.05 {
			t.Errorf("job %d normalized throughput %.3f, want >= 1.05 (paper: ~1.1)", m, rel)
		}
	}
}

func TestMaxMinSharingIncentive(t *testing.T) {
	// Property from §4.4: the optimal max-min objective is at least the
	// isolated allocation's, i.e. every job's normalized throughput >= 1/n.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		in := randomInput(rng, n, 2+rng.Intn(2))
		alloc, err := (&MaxMinFairness{}).Allocate(in, nil)
		if err != nil {
			return false
		}
		if alloc.Validate(in.scaleFactors(), in.Workers) != nil {
			return false
		}
		total := 0.0
		for _, w := range in.Workers {
			total += w
		}
		for m := range in.Jobs {
			norm := core.EqualShareThroughput(in.Jobs[m].Tput, in.Workers)
			if norm == 0 {
				continue
			}
			// Isolated share: min(1, total/n) of the time on each type.
			share := math.Min(1, total/float64(n))
			if alloc.EffectiveThroughput(m)/norm < share-1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxMinRespectsWeights(t *testing.T) {
	in := paperExampleInput()
	in.Jobs[0].Weight = 3 // job 0 deserves 3x the normalized throughput
	alloc, err := (&MaxMinFairness{}).Allocate(in, nil)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	n0 := alloc.EffectiveThroughput(0) / core.EqualShareThroughput(in.Jobs[0].Tput, in.Workers)
	n1 := alloc.EffectiveThroughput(1) / core.EqualShareThroughput(in.Jobs[1].Tput, in.Workers)
	if n0 < 1.5*n1 {
		t.Errorf("weighted job got %.3f vs %.3f; want ~3x", n0, n1)
	}
}

func TestMaxMinPriorities(t *testing.T) {
	in := paperExampleInput()
	in.Jobs[2].Priority = 5
	pol := &MaxMinFairness{UsePriorities: true}
	alloc, err := pol.Allocate(in, nil)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	n2 := alloc.EffectiveThroughput(2) / core.EqualShareThroughput(in.Jobs[2].Tput, in.Workers)
	n1 := alloc.EffectiveThroughput(1) / core.EqualShareThroughput(in.Jobs[1].Tput, in.Workers)
	if n2 <= n1 {
		t.Errorf("high-priority job normalized %.3f <= %.3f", n2, n1)
	}
}

func TestFIFOPrefersEarlierJobs(t *testing.T) {
	in := paperExampleInput()
	alloc, err := (FIFO{}).Allocate(in, nil)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := alloc.Validate(in.scaleFactors(), in.Workers); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	// Job 0 arrived first: it must get its fastest type (V100) fully.
	if alloc.X[0][0] < 0.99 {
		t.Errorf("job 0 V100 share = %v, want ~1 (FIFO head on fastest)", alloc.X[0][0])
	}
}

func TestMakespanBeatsAgnosticOnExample(t *testing.T) {
	in := paperExampleInput()
	aware, err := (Makespan{}).Allocate(in, nil)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := aware.Validate(in.scaleFactors(), in.Workers); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	mkAware := MakespanValue(in, aware)

	agn, err := (&Agnostic{Inner: Makespan{}}).Allocate(in, nil)
	if err != nil {
		t.Fatalf("agnostic: %v", err)
	}
	mkAgn := MakespanValue(in, agn)
	if mkAware > mkAgn*1.0001 {
		t.Errorf("aware makespan %.1f > agnostic %.1f", mkAware, mkAgn)
	}
	// And the allocation must be work-conserving enough to finish at all.
	if mkAware <= 0 || math.IsInf(mkAware, 0) {
		t.Fatalf("bad makespan %v", mkAware)
	}
}

// Property: the makespan policy's value is optimal among a set of random
// valid allocations (it is a minimizer).
func TestPropertyMakespanOptimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInput(rng, 1+rng.Intn(5), 2)
		alloc, err := (Makespan{}).Allocate(in, nil)
		if err != nil {
			return false
		}
		opt := MakespanValue(in, alloc)
		// Random feasible competitor: every job splits its time budget
		// uniformly over types scaled to respect capacity.
		comp := &core.Allocation{Units: in.Units, X: make([][]float64, len(in.Units))}
		used := make([]float64, len(in.Workers))
		for m := range in.Units {
			comp.X[m] = make([]float64, len(in.Workers))
			for j := range in.Workers {
				if in.Jobs[m].Tput[j] <= 0 {
					continue
				}
				x := rng.Float64() / float64(len(in.Workers))
				if used[j]+x > in.Workers[j] {
					x = in.Workers[j] - used[j]
				}
				if x < 0 {
					x = 0
				}
				comp.X[m][j] = x
				used[j] += x
			}
		}
		return MakespanValue(in, comp) >= opt*(1-1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFinishTimeFairness(t *testing.T) {
	in := paperExampleInput()
	pol := &FinishTimeFairness{}
	alloc, err := pol.Allocate(in, nil)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := alloc.Validate(in.scaleFactors(), in.Workers); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	// With 3 jobs sharing 2 GPUs, the max-min rho should beat the isolated
	// 1/3 share (rho < 1) because the het-aware allocation is better.
	worst := 0.0
	for m := range in.Jobs {
		if r := RhoValue(in, alloc, m); r > worst {
			worst = r
		}
	}
	if worst > 1.0+1e-6 {
		t.Errorf("max rho = %.3f, want <= 1 (should beat isolated share)", worst)
	}
}

func TestShortestJobFirst(t *testing.T) {
	in := paperExampleInput()
	in.Jobs[2].RemainingSteps = 10 // job 2 is now by far the shortest
	alloc, err := (ShortestJobFirst{}).Allocate(in, nil)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	// Job 2's fastest type is V100; SJF must give it full V100 time.
	if alloc.X[2][0] < 0.99 {
		t.Errorf("shortest job V100 share = %v, want ~1", alloc.X[2][0])
	}
}

func TestMaxTotalThroughput(t *testing.T) {
	in := paperExampleInput()
	alloc, err := (MaxTotalThroughput{}).Allocate(in, nil)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := alloc.Validate(in.scaleFactors(), in.Workers); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	// Both devices should be fully used (work conservation).
	usedV, usedK := 0.0, 0.0
	for m := range in.Units {
		usedV += alloc.X[m][0]
		usedK += alloc.X[m][1]
	}
	if usedV < 0.99 || usedK < 0.99 {
		t.Errorf("devices not fully used: V100 %.2f K80 %.2f", usedV, usedK)
	}
}

func TestMinCostPrefersCheapEfficientPlacement(t *testing.T) {
	// A job with flat throughput across types should land on the cheap
	// type under the cost objective.
	in := &Input{Workers: []float64{1, 1}, Prices: []float64{2.48, 0.45}}
	tp := []float64{1.1, 1.0} // barely faster on the expensive GPU
	in.Jobs = append(in.Jobs, JobInfo{ID: 0, Weight: 1, ScaleFactor: 1, Tput: tp,
		RemainingSteps: 1000, TotalSteps: 1000, NumActiveJobs: 1})
	in.Units = append(in.Units, core.Single(0, tp))
	alloc, err := (&MinCost{}).Allocate(in, nil)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if alloc.X[0][1] < alloc.X[0][0] {
		t.Errorf("cost policy chose expensive GPU: X=%v", alloc.X[0])
	}
}

func TestMinCostSLOForcesFastGPU(t *testing.T) {
	// Same job but with an SLO only the expensive GPU can meet.
	in := &Input{Workers: []float64{1, 1}, Prices: []float64{2.48, 0.45}}
	tp := []float64{2.0, 1.0}
	in.Jobs = append(in.Jobs, JobInfo{ID: 0, Weight: 1, ScaleFactor: 1, Tput: tp,
		RemainingSteps: 1000, TotalSteps: 1000, SLORemaining: 600, NumActiveJobs: 1})
	in.Units = append(in.Units, core.Single(0, tp))
	alloc, err := (&MinCost{EnforceSLOs: true}).Allocate(in, nil)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	// Needs 1000/600 = 1.67 steps/s; only reachable with mostly-V100 time.
	if got := alloc.EffectiveThroughput(0); got < 1000.0/600-1e-6 {
		t.Errorf("SLO-constrained throughput %.3f < needed %.3f (X=%v)", got, 1000.0/600, alloc.X[0])
	}
}

func TestAgnosticSpreadsAcrossTypes(t *testing.T) {
	in := paperExampleInput()
	alloc, err := (&Agnostic{Inner: &MaxMinFairness{}}).Allocate(in, nil)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := alloc.Validate(in.scaleFactors(), in.Workers); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	// Heterogeneity-agnostic: each job's time is split across types in
	// proportion to capacity (1 V100, 1 K80 -> 50/50).
	for m := range in.Jobs {
		if math.Abs(alloc.X[m][0]-alloc.X[m][1]) > 1e-6 {
			t.Errorf("job %d agnostic split %v, want equal", m, alloc.X[m])
		}
	}
}

func TestAlloXSchedulesShortJobsFirst(t *testing.T) {
	in := paperExampleInput()
	in.Jobs[1].RemainingSteps = 10 // very short
	alloc, err := (&AlloX{}).Allocate(in, nil)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	// With 2 devices and 3 jobs, the two queue heads run; the short job
	// must be one of them.
	if alloc.JobTimeFraction(1) < 0.99 {
		t.Errorf("short job not scheduled: X=%v", alloc.X[1])
	}
	if err := alloc.Validate(in.scaleFactors(), in.Workers); err != nil {
		t.Fatalf("invalid: %v", err)
	}
}

func TestGandivaKeepsProfitablePairs(t *testing.T) {
	in := paperExampleInput()
	// Add a profitable pair (0,1) and an unprofitable pair (1,2).
	in.Units = append(in.Units,
		core.Pair(0, 1, []float64{3.8, 0.9}, []float64{2.9, 0.9}), // ~1.9x gain
		core.Pair(1, 2, []float64{1.0, 0.3}, []float64{0.7, 0.3}), // <1x
	)
	pol := NewGandivaSpaceSharing(7)
	pol.TriesPerRound = 64
	alloc, err := pol.Allocate(in, nil)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	// The profitable pair should have been adopted: its unit carries time.
	pairTime := 0.0
	for j := range in.Workers {
		pairTime += alloc.X[3][j]
	}
	if pairTime <= 0 {
		t.Error("profitable pair never adopted")
	}
	badTime := 0.0
	for j := range in.Workers {
		badTime += alloc.X[4][j]
	}
	if badTime > 0 {
		t.Error("unprofitable pair adopted")
	}
}

func TestEmptyInputs(t *testing.T) {
	empty := &Input{Workers: []float64{1, 1}, Prices: []float64{1, 1}}
	pols := []Policy{
		&MaxMinFairness{}, FIFO{}, ShortestJobFirst{}, Makespan{},
		&FinishTimeFairness{}, &MinCost{}, MaxTotalThroughput{},
		&Agnostic{Inner: &MaxMinFairness{}}, &AlloX{}, &Hierarchical{},
		NewGandivaSpaceSharing(1), &PlacementAwareMaxMin{},
	}
	for _, p := range pols {
		alloc, err := p.Allocate(empty, nil)
		if err != nil {
			t.Fatalf("%s on empty input: %v", p.Name(), err)
		}
		if len(alloc.X) != 0 {
			t.Fatalf("%s returned non-empty allocation", p.Name())
		}
	}
}

// allPoliciesValidOn reports whether every policy allocates the random input
// seed generates, validly — the paper's constraint set (§3.1) is a hard
// invariant.
func allPoliciesValidOn(t *testing.T, seed int64) bool {
	pols := []Policy{
		&MaxMinFairness{}, FIFO{}, ShortestJobFirst{}, Makespan{},
		&FinishTimeFairness{}, &MinCost{}, &MinCost{EnforceSLOs: true},
		MaxTotalThroughput{}, &Agnostic{Inner: &MaxMinFairness{}},
		&Agnostic{Inner: FIFO{}}, &AlloX{}, &Hierarchical{}, &PlacementAwareMaxMin{},
	}
	rng := rand.New(rand.NewSource(seed))
	in := randomInput(rng, 1+rng.Intn(7), 2+rng.Intn(2))
	for _, p := range pols {
		alloc, err := p.Allocate(in, nil)
		if err != nil {
			t.Logf("seed %d, %s: %v", seed, p.Name(), err)
			return false
		}
		if err := alloc.Validate(in.scaleFactors(), in.Workers); err != nil {
			t.Logf("seed %d, %s invalid: %v", seed, p.Name(), err)
			return false
		}
	}
	return true
}

// TestPropertyAllPoliciesProduceValidAllocations fuzzes every policy with
// random inputs from a fixed stream of seeds.
func TestPropertyAllPoliciesProduceValidAllocations(t *testing.T) {
	f := func(seed int64) bool { return allPoliciesValidOn(t, seed) }
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestAllPoliciesOnAJobThatRunsNowhere pins the seeds whose input is one job
// with throughput row [0 0]: MinCost used to fail them ("fractional program
// not optimal: infeasible") where every other policy allocates nothing.
func TestAllPoliciesOnAJobThatRunsNowhere(t *testing.T) {
	for _, seed := range []int64{3333887962763584948, -1615417635801992902} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			if in := randomInput(rng, 1+rng.Intn(7), 2+rng.Intn(2)); len(in.Jobs) != 1 || core.Finite(core.MaxThroughput(in.Jobs[0].Tput)) {
				t.Fatalf("seed %d no longer generates one job that runs nowhere: %v", seed, in.Jobs)
			}
			if !allPoliciesValidOn(t, seed) {
				t.Fatal("a policy failed")
			}
		})
	}
}

// TestMinCostIdlesAJobThatRunsNowhere: beside a job that runs somewhere, a
// job with an all-zero row gets no time and the other job still does.
func TestMinCostIdlesAJobThatRunsNowhere(t *testing.T) {
	in := &Input{Workers: []float64{1, 1}, Prices: []float64{2.48, 0.45}}
	for m, tp := range [][]float64{{0, 0}, {2, 1}} {
		in.Jobs = append(in.Jobs, JobInfo{ID: m, Weight: 1, ScaleFactor: 1, Tput: tp,
			RemainingSteps: 1000, TotalSteps: 1000, NumActiveJobs: 2})
		in.Units = append(in.Units, core.Single(m, tp))
	}
	alloc, err := (&MinCost{}).Allocate(in, nil)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := alloc.Validate(in.scaleFactors(), in.Workers); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if alloc.JobTimeFraction(0) != 0 || !(alloc.JobTimeFraction(1) > 0) {
		t.Fatalf("time fractions %v and %v, want 0 for the job that runs nowhere and > 0 for the other (X=%v)",
			alloc.JobTimeFraction(0), alloc.JobTimeFraction(1), alloc.X)
	}
}

// TestFairPoliciesServeAJobBesideAnEmptyType: job 0 runs only on a type
// with no devices, as a shard whose split gave it none of that type sees.
// Job 1 must still get its whole time budget on the other type. Makespan
// used to constrain job 0 too, which pinned z* at 0 and idled the cluster.
func TestFairPoliciesServeAJobBesideAnEmptyType(t *testing.T) {
	in := &Input{Workers: []float64{0, 2}}
	for m, tp := range [][]float64{{3, 0}, {2, 1}} {
		in.Jobs = append(in.Jobs, JobInfo{ID: m, Weight: 1, ScaleFactor: 1, Tput: tp,
			RemainingSteps: 1000, TotalSteps: 1000, Elapsed: 10, NumActiveJobs: 2})
		in.Units = append(in.Units, core.Single(m, tp))
	}
	for _, p := range []Policy{Makespan{}, &MaxMinFairness{}, &FinishTimeFairness{}} {
		alloc, err := p.Allocate(in, nil)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if f := alloc.JobTimeFraction(1); f < 0.999 {
			t.Errorf("%s: job 1 runs %.3f of the time, want 1 (X=%v)", p.Name(), f, alloc.X)
		}
	}
}

func TestValidateRejectsMalformedInput(t *testing.T) {
	in := paperExampleInput()
	in.Units = in.Units[:1] // fewer units than jobs
	if _, err := (&MaxMinFairness{}).Allocate(in, nil); err == nil {
		t.Fatal("want validation error")
	}
}
