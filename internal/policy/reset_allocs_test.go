package policy

import (
	"runtime"
	"sync"
	"testing"
)

// resetAllocCeilings are the committed per-reset allocation ceilings, set at
// about twice what the arena-backed reset path measures (objects and bytes
// per reset). This stream hands the policy no buffers, so what remains per
// reset is what a caller without them gets fresh: the units (Units, not
// UnitsInto), the policy input and the Allocation (no ExtractTo
// destination). Solve vectors are lent from the workspace and basis
// snapshots reuse the storage of the bases they replace. The shard, which
// hands over all of these, is pinned by cluster's TestShardResetAllocs.
var resetAllocCeilings = map[string]struct{ objects, bytes float64 }{
	"maxmin_ss_churn_64": {objects: 136, bytes: 110_000}, // measured 68 / 54,298 (before the lent vectors 77 / 65,402)
	"cost_drift_256":     {objects: 40, bytes: 225_000},  // measured 20 / 111,442 (before 24 / 121,008)
}

// measureResetAllocs runs the scenario's reset stream through one
// SolveContext and returns the mean heap objects and bytes one steady-state
// reset (Units → Allocate, which ends in Extract) allocates. It reads the
// counters testing.AllocsPerRun reads (runtime.MemStats under GOMAXPROCS(1)),
// but brackets only the reset itself: the disturbance between resets —
// arrivals, departures, throughput observations — is the caller's cost, and
// AllocsPerRun cannot exclude it.
func measureResetAllocs(t testing.TB, sc resetScenario, warmup, resets int) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := newResetStream(sc, 20260926)
	pol := sc.policy()
	ctx := NewSolveContext()
	var before, after runtime.MemStats
	var mallocs, total uint64
	for r := 0; r < warmup+resets; r++ {
		if r > 0 {
			s.disturb()
		}
		runtime.ReadMemStats(&before)
		in := s.input()
		_, err := pol.Allocate(in, ctx)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s reset %d: %v", sc.name, r, err)
		}
		if r >= warmup {
			mallocs += after.Mallocs - before.Mallocs
			total += after.TotalAlloc - before.TotalAlloc
		}
	}
	return float64(mallocs) / float64(resets), float64(total) / float64(resets)
}

// TestResetPathAllocs holds the reset path to its allocation ceilings: after
// three warm-up resets have grown the arenas, a reset may allocate only what
// it hands back.
func TestResetPathAllocs(t *testing.T) {
	cases := []resetScenario{
		{name: "maxmin_ss_churn_64", policy: func() Policy { return &MaxMinFairness{} }, jobs: 64, pairs: 4, disturb: resetChurn},
		{name: "cost_drift_256", policy: func() Policy { return &MinCost{} }, jobs: 256, disturb: resetDrift},
	}
	for _, sc := range cases {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			objects, bytes := measureResetAllocs(t, sc, 3, 20)
			ceil := resetAllocCeilings[sc.name]
			t.Logf("%.0f objects, %.0f bytes per reset (ceilings %.0f / %.0f)", objects, bytes, ceil.objects, ceil.bytes)
			if objects > ceil.objects {
				t.Errorf("%.0f objects per reset, ceiling %.0f", objects, ceil.objects)
			}
			if bytes > ceil.bytes {
				t.Errorf("%.0f bytes per reset, ceiling %.0f", bytes, ceil.bytes)
			}
		})
	}
}

// TestScratchPoolConcurrentAllocate runs K reset streams at once, each on
// its own context, so the pool lends and takes back scratches across
// goroutines (and, under -race, checks that hand-over). Every stream must
// land on the bits its serial replay produces, and the free list may end
// with no more scratches than there were concurrent Allocates.
func TestScratchPoolConcurrentAllocate(t *testing.T) {
	const resets = 5
	var streams []resetScenario
	for _, sc := range resetScenarios {
		// The two slowest streams add little under -race but its run time.
		if sc.name != "hier_perturb" && sc.name != "cost_slo_perturb" {
			sc.resets = resets
			streams = append(streams, sc)
		}
	}
	K := len(streams)
	want := make([]resetGoldenScenario, K)
	for i, sc := range streams {
		want[i] = runResetScenario(t, sc)
	}
	got := make([]resetGoldenScenario, K)
	errs := make([]error, K)
	var wg sync.WaitGroup
	for i, sc := range streams {
		wg.Add(1)
		go func(i int, sc resetScenario) {
			defer wg.Done()
			p := newResetReplay(sc)
			for r := 0; r < resets && errs[i] == nil; r++ {
				errs[i] = p.step(false)
			}
			got[i] = p.result()
		}(i, sc)
	}
	wg.Wait()
	for i, sc := range streams {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i].Digest != want[i].Digest {
			t.Errorf("%s: concurrent digest %s, serial %s", sc.name, got[i].Digest, want[i].Digest)
		}
	}
	scratches.mu.Lock()
	n := len(scratches.free)
	scratches.mu.Unlock()
	if n > K {
		t.Fatalf("free list holds %d scratches after %d concurrent streams", n, K)
	}
}

// BenchmarkFreshContextAllocate is the first Allocate of a new context: a
// 256-job max-min reset, a fresh SolveContext per op. What it allocates
// beyond a warm reset is the context's own state, not the solve arenas.
func BenchmarkFreshContextAllocate(b *testing.B) {
	ids := make([]int, 256)
	for i := range ids {
		ids[i] = i
	}
	in := churnInput(ids, []float64{64, 64, 64})
	pol := &MaxMinFairness{}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := pol.Allocate(in, NewSolveContext()); err != nil {
			b.Fatal(err)
		}
	}
}
