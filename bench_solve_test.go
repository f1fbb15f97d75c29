// Repeated-solve benchmarks for the incremental allocation pipeline: how
// fast can a policy re-solve after a reset event, cold vs warm-started, in
// two scenarios — "perturb" (observed-throughput updates, problem shape
// unchanged) and "churn" (25% of resets are a job departure + arrival, so
// the LP's variable set changes and the warm path must remap the cached
// basis across shapes). Run with:
//
//	go test -bench BenchmarkPolicySolveReset -run '^$'
//
// TestWriteSolveBenchJSON (gated by GAVEL_WRITE_BENCH=1) records the same
// measurements into BENCH_solve.json to track the perf trajectory across
// PRs.
package gavel

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"gavel/internal/cluster"
	"gavel/internal/core"
	"gavel/internal/obs"
	"gavel/internal/policy"
	"gavel/internal/rpc"
	"gavel/internal/workload"
)

// solveResetInput builds an n-job policy input on an n/4-per-type cluster
// (the paper's scaling shape), with distinct weights so optima are unique.
func solveResetInput(n int) *policy.Input {
	per := float64(n / 4)
	if per < 1 {
		per = 1
	}
	zoo := workload.Zoo()
	in := &policy.Input{
		Workers: []float64{per, per, per},
		Prices:  []float64{3.06, 1.46, 0.9},
	}
	for m := 0; m < n; m++ {
		cfg := zoo[m%len(zoo)]
		tput := make([]float64, 3)
		for t := range tput {
			if workload.Fits(cfg, t) {
				tput[t] = workload.Throughput(cfg, t)
			}
		}
		in.Jobs = append(in.Jobs, policy.JobInfo{
			ID: m, Weight: 1 + 0.01*float64(m), Priority: 1, ScaleFactor: 1,
			Tput: tput, RemainingSteps: 1e6, TotalSteps: 2e6,
			Elapsed: 3600, ArrivalSeq: m, NumActiveJobs: n,
		})
		// Unit shares the Tput slice so in-place perturbation stays
		// consistent between the job row and its unit row. Keyed by job ID
		// so warm starts survive the churn scenario's job-set changes.
		in.Units = append(in.Units, core.Single(m, tput).Keyed(core.JobKey(m)))
	}
	return in
}

// perturbInput jitters every throughput by up to +-frac in place, modeling a
// reset event where observed throughputs moved but the job set did not.
func perturbInput(in *policy.Input, rng *rand.Rand, frac float64) {
	for m := range in.Jobs {
		for t, v := range in.Jobs[m].Tput {
			if v > 0 {
				in.Jobs[m].Tput[t] = v * (1 + frac*(2*rng.Float64()-1))
			}
		}
	}
}

// driftWorkers jitters the per-type worker capacities by up to +-frac in
// place, modeling machines joining or leaving between resets while the job
// set and observed throughputs hold still. Capacities only appear on the
// LP's right-hand side, so this is the dual simplex's home scenario: the
// cached basis stays dual feasible and the warm solve should finish in a
// handful of dual pivots (visible as dual_iterations in the bench records).
func driftWorkers(in *policy.Input, rng *rand.Rand, frac float64) {
	for t, w := range in.Workers {
		in.Workers[t] = w * (1 + frac*(2*rng.Float64()-1))
	}
}

// churnInput applies a job departure + arrival to the input in place: the
// oldest job leaves, a new job with a fresh ID (and a fresh unit key) enters
// at the back, and every position shifts — exactly what a reset event that
// changes the job set does to a policy's LP. nextID supplies the arrival's
// external ID; the returned value is the next fresh ID.
func churnInput(in *policy.Input, nextID int) int {
	zoo := workload.Zoo()
	n := len(in.Jobs)
	copy(in.Jobs, in.Jobs[1:])
	copy(in.Units, in.Units[1:])
	cfg := zoo[nextID%len(zoo)]
	tput := make([]float64, 3)
	for t := range tput {
		if workload.Fits(cfg, t) {
			tput[t] = workload.Throughput(cfg, t)
		}
	}
	in.Jobs[n-1] = policy.JobInfo{
		ID: nextID, Weight: 1 + 0.01*float64(nextID), Priority: 1, ScaleFactor: 1,
		Tput: tput, RemainingSteps: 1e6, TotalSteps: 2e6,
		Elapsed: 3600, ArrivalSeq: nextID, NumActiveJobs: n,
	}
	in.Units[n-1] = core.Single(n-1, tput).Keyed(core.JobKey(nextID))
	// Positions shifted: re-point every surviving single unit at its new
	// position (units built here are singles whose Jobs hold positions).
	for m := 0; m < n; m++ {
		in.Units[m].Jobs = []int{m}
	}
	return nextID + 1
}

var solveResetPolicies = []struct {
	name string
	make func() policy.Policy
}{
	{"maxmin", func() policy.Policy { return &policy.MaxMinFairness{} }},
	{"ftf", func() policy.Policy { return &policy.FinishTimeFairness{} }},
	{"cost", func() policy.Policy { return &policy.MinCost{} }},
}

// BenchmarkPolicySolveReset measures repeated-solve latency after reset
// events, cold (no basis reuse) vs warm (basis reuse across resets), at
// 2^7..2^10 jobs. The "perturb" scenario keeps the job set fixed and jitters
// observed throughputs (shape-preserving warm starts); the "churn" scenario
// additionally changes the job set on 25% of resets (a departure + an
// arrival), which forces the warm path through the cross-shape basis remap.
// ftf stops at 512 jobs: its binary search (~20 solves per reset) puts the
// 1024-job cells out of a benchmark run's budget.
func BenchmarkPolicySolveReset(b *testing.B) {
	for _, pol := range solveResetPolicies {
		for _, n := range []int{128, 256, 512, 1024} {
			for _, scenario := range []string{"perturb", "churn"} {
				for _, mode := range []string{"cold", "warm"} {
					b.Run(fmt.Sprintf("%s/jobs=%d/%s/%s", pol.name, n, scenario, mode), func(b *testing.B) {
						if n >= 1024 && pol.name == "ftf" {
							b.Skip("ftf's binary search is out of budget at 1024 jobs")
						}
						in := solveResetInput(n)
						p := pol.make()
						ctx := policy.NewSolveContext()
						ctx.NoWarm = mode == "cold"
						// GAVEL_OBS_BENCH=1 attaches the live telemetry
						// bundle to every solve, so CI can diff ns/op
						// against an uninstrumented run and gate the
						// instrumentation overhead.
						if os.Getenv("GAVEL_OBS_BENCH") == "1" {
							ctx.Metrics = obs.NewLPMetrics(obs.NewRegistry())
						}
						rng := rand.New(rand.NewSource(99))
						nextID := n
						// Prime the context so the first measured solve of
						// the warm mode has a basis to start from, as it
						// would mid-simulation.
						if _, err := p.Allocate(in, ctx); err != nil {
							b.Fatal(err)
						}
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							perturbInput(in, rng, 0.01)
							if scenario == "churn" && i%4 == 1 {
								nextID = churnInput(in, nextID)
							}
							if _, err := p.Allocate(in, ctx); err != nil {
								b.Fatal(err)
							}
						}
						b.ReportMetric(float64(ctx.Stats.Iterations)/float64(ctx.Stats.Solves), "simplex-iters/solve")
					})
				}
			}
		}
	}
}

// shardedResetHarness drives repeated reset events through the sharded
// scheduler service (rpc.Service over in-memory shard servers): n jobs and an
// n/4-per-type cluster partitioned across K shards, each reset jittering
// every observed throughput by ±1% (pushed through the shard clients'
// ObserveJob) and, on every 4th reset, churning the job set (the oldest
// resident departs, a newcomer arrives through the router). Every shard
// re-solves its own LP per reset — concurrently — so K=1 is the
// unpartitioned solve path through the same API and larger K measures how
// sharding cuts the superlinear LP cost.
type shardedResetHarness struct {
	svc     *rpc.Service
	clients []rpc.ShardClient
	info    func(id int) policy.JobInfo
	rng     *rand.Rand
	rows    map[int][]float64 // residents' current (jittered) throughput rows
	fifo    []int             // residents in admission order (churn removes the head)
	nextID  int
	round   int64 // AllocateAll's request ID: the shards' reply caches key on it
}

func shardedResetTput(id int) []float64 {
	zoo := workload.Zoo()
	cfg := zoo[id%len(zoo)]
	tput := make([]float64, 3)
	for t := range tput {
		if workload.Fits(cfg, t) {
			tput[t] = workload.Throughput(cfg, t)
		}
	}
	return tput
}

// newShardedResetHarness admits n jobs and primes every shard's context with
// one (cold) allocation, so the first measured reset runs warm — mirroring
// the unsharded measureSolveResets.
func newShardedResetHarness(n, shards int) (*shardedResetHarness, error) {
	per := n / 4
	if per < 1 {
		per = 1
	}
	spec := cluster.Spec{Types: []cluster.AcceleratorType{
		{Name: "v100", Count: per, PricePerHour: cluster.PriceV100, PerServer: 8},
		{Name: "p100", Count: per, PricePerHour: cluster.PriceP100, PerServer: 8},
		{Name: "k80", Count: per, PricePerHour: cluster.PriceK80, PerServer: 8},
	}}
	clients := make([]rpc.ShardClient, shards)
	for k := range clients {
		_, clients[k] = rpc.NewLocalShard()
	}
	svc, err := rpc.NewService(rpc.ServiceConfig{
		Cluster: spec,
		Policy:  rpc.PolicySpec{Name: "max_min_fairness"},
		Route:   cluster.RouteLeastLoaded,
	}, clients)
	if err != nil {
		return nil, err
	}
	h := &shardedResetHarness{
		svc:     svc,
		clients: clients,
		info: func(id int) policy.JobInfo {
			return policy.JobInfo{
				Weight: 1 + 0.01*float64(id%997), Priority: 1,
				RemainingSteps: 1e6, TotalSteps: 2e6, Elapsed: 3600, ArrivalSeq: id,
			}
		},
		rng:    rand.New(rand.NewSource(99)),
		rows:   map[int][]float64{},
		nextID: n,
	}
	for id := 0; id < n; id++ {
		if err := h.admit(id); err != nil {
			return nil, err
		}
	}
	return h, h.allocate()
}

func (h *shardedResetHarness) admit(id int) error {
	h.rows[id] = shardedResetTput(id)
	h.fifo = append(h.fifo, id)
	_, err := h.svc.Admit(id, 1, h.rows[id])
	return err
}

// allocate re-solves every shard under a fresh round number.
func (h *shardedResetHarness) allocate() error {
	h.round++
	return h.svc.AllocateAll(h.round, h.info, true)
}

// reset applies one reset event and re-solves every shard.
func (h *shardedResetHarness) reset(i int) error {
	for k, c := range h.clients {
		for _, id := range h.svc.ShardJobs(k) {
			row := append([]float64(nil), h.rows[id]...)
			for t := range row {
				if row[t] > 0 {
					row[t] *= 1 + 0.01*(2*h.rng.Float64()-1)
				}
			}
			h.rows[id] = row
			if err := c.ObserveJob(rpc.ObserveJobArgs{JobID: id, Tput: row}); err != nil {
				return err
			}
		}
	}
	if i%4 == 1 {
		if err := h.svc.Remove(h.fifo[0]); err != nil {
			return err
		}
		delete(h.rows, h.fifo[0])
		h.fifo = h.fifo[1:]
		if err := h.admit(h.nextID); err != nil {
			return err
		}
		h.nextID++
	}
	return h.allocate()
}

// solveStats returns every shard's LP accounting in shard order.
func (h *shardedResetHarness) solveStats() ([]policy.SolveStats, error) {
	status, err := h.svc.Stats()
	if err != nil {
		return nil, err
	}
	out := make([]policy.SolveStats, len(status))
	for k, st := range status {
		out[k] = st.Solve
	}
	return out, nil
}

// BenchmarkShardedSolveReset measures the 1024-job reset scenario on the
// sharded service at K=1 vs K=4: per-shard LPs are superlinearly cheaper
// than the one-shard LP and solve concurrently, so K=4 should beat K=1 by
// well over the core-count-independent algorithmic factor.
func BenchmarkShardedSolveReset(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("jobs=1024/shards=%d", shards), func(b *testing.B) {
			h, err := newShardedResetHarness(1024, shards)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := h.reset(i); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			stats, err := h.solveStats()
			if err != nil {
				b.Fatal(err)
			}
			var warm, remapped int
			for _, st := range stats {
				warm += st.WarmHits
				remapped += st.RemapHits
			}
			b.ReportMetric(float64(warm)/float64(b.N), "warm/reset")
			b.ReportMetric(float64(remapped)/float64(b.N), "remap/reset")
		})
	}
}

// shardedShardRecord is one shard's solve buckets within a sharded bench
// record (prime solve excluded).
type shardedShardRecord struct {
	Shard             int `json:"shard"`
	LPSolves          int `json:"lp_solves"`
	WarmSolves        int `json:"warm_solves"`
	RemappedSolves    int `json:"remapped_solves"`
	ColdSolves        int `json:"cold_solves"`
	SimplexIterations int `json:"simplex_iterations"`
	// PresolveReductions sums rows/columns/bounds the LP presolve removed or
	// tightened; DualIterations counts dual-simplex repair pivots (a subset
	// of SimplexIterations).
	PresolveReductions int `json:"presolve_reductions"`
	DualIterations     int `json:"dual_iterations"`
}

type shardedBenchRecord struct {
	Jobs   int `json:"jobs"`
	Shards int `json:"shards"`
	// Engine is always "revised"; the field dates from when BENCH_solve.json
	// also held the dense tableau's records.
	Engine string `json:"engine"`
	Resets int    `json:"resets"`
	// MaxProcs records GOMAXPROCS at measurement time: per-shard solves run
	// concurrently, so wall-clock improves with min(shards, cores) on top
	// of the algorithmic saving from smaller LPs.
	MaxProcs   int                  `json:"maxprocs"`
	NsPerReset float64              `json:"ns_per_reset"`
	PerShard   []shardedShardRecord `json:"per_shard"`
}

// measureShardedResets runs the sharded reset scenario for a fixed number of
// resets and returns wall-clock plus per-shard warm/remap/cold buckets.
func measureShardedResets(n, shards, resets int) (shardedBenchRecord, error) {
	h, err := newShardedResetHarness(n, shards)
	if err != nil {
		return shardedBenchRecord{}, err
	}
	prime, err := h.solveStats()
	if err != nil {
		return shardedBenchRecord{}, err
	}
	start := time.Now()
	for i := 0; i < resets; i++ {
		if err := h.reset(i); err != nil {
			return shardedBenchRecord{}, err
		}
	}
	elapsed := time.Since(start)
	rec := shardedBenchRecord{
		Jobs: n, Shards: shards, Engine: "revised", Resets: resets,
		MaxProcs:   runtime.GOMAXPROCS(0),
		NsPerReset: float64(elapsed.Nanoseconds()) / float64(resets),
	}
	after, err := h.solveStats()
	if err != nil {
		return shardedBenchRecord{}, err
	}
	for k, d := range after {
		d.Solves -= prime[k].Solves
		d.WarmHits -= prime[k].WarmHits
		d.RemapHits -= prime[k].RemapHits
		d.Iterations -= prime[k].Iterations
		d.PresolveReductions -= prime[k].PresolveReductions
		d.DualIterations -= prime[k].DualIterations
		rec.PerShard = append(rec.PerShard, shardedShardRecord{
			Shard:             k,
			LPSolves:          d.Solves,
			WarmSolves:        d.WarmHits,
			RemappedSolves:    d.RemapHits,
			ColdSolves:        d.Solves - d.WarmHits - d.RemapHits,
			SimplexIterations: d.Iterations,

			PresolveReductions: d.PresolveReductions,
			DualIterations:     d.DualIterations,
		})
	}
	return rec, nil
}

// TestWriteShardStats writes the per-shard solve buckets of a small sharded
// reset run (K in {1, 4}) to the path in GAVEL_SHARD_STATS — the CI
// bench-smoke artifact showing where each shard's solves landed.
func TestWriteShardStats(t *testing.T) {
	path := os.Getenv("GAVEL_SHARD_STATS")
	if path == "" {
		t.Skip("set GAVEL_SHARD_STATS=<path> to write the per-shard stats artifact")
	}
	var records []shardedBenchRecord
	for _, shards := range []int{1, 4} {
		rec, err := measureShardedResets(256, shards, 8)
		if err != nil {
			t.Fatal(err)
		}
		records = append(records, rec)
	}
	out, err := json.MarshalIndent(map[string]any{
		"benchmark": "ShardedSolveReset/smoke",
		"unit_note": "256-job sharded reset smoke; per_shard buckets exclude the cold prime solve; churn on every 4th reset exercises the remap path per shard",
		"records":   records,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

type solveBenchRecord struct {
	Policy   string `json:"policy"`
	Jobs     int    `json:"jobs"`
	Scenario string `json:"scenario"`
	Mode     string `json:"mode"`
	// Engine is always "revised" and Pricing always "devex"; the fields date
	// from when the file also held dense-tableau and partial-pricing records.
	Engine            string `json:"engine"`
	Pricing           string `json:"pricing"`
	Resets            int    `json:"resets"`
	LPSolves          int    `json:"lp_solves"`
	WarmSolves        int    `json:"warm_solves"`
	RemappedSolves    int    `json:"remapped_solves"`
	SimplexIterations int    `json:"simplex_iterations"`
	// PresolveReductions sums rows/columns/bounds the LP presolve removed or
	// tightened across the measured resets; DualIterations counts the
	// dual-simplex repair pivots warm starts took (subset of
	// SimplexIterations — nonzero only when the warm path found a seed it
	// could repair on the dual side).
	PresolveReductions int     `json:"presolve_reductions"`
	DualIterations     int     `json:"dual_iterations"`
	NsPerReset         float64 `json:"ns_per_reset"`
	// BuildMs is the mean per-reset wall-clock Allocate spent outside its LP
	// solves (program build, basis remap, extraction), read from the
	// gavel_policy_build_seconds series. Recorded on the 4096-job tier,
	// where it once exceeded the solve itself (DESIGN.md, "Reset path").
	BuildMs float64 `json:"build_ms,omitempty"`
}

// measureSolveResets runs a fixed number of re-solves under the given
// scenario ("perturb" jitters throughputs; "churn" additionally changes the
// job set on every 4th reset; "drift" jitters only the worker capacities —
// a pure rhs drift that keeps cached bases dual feasible) and returns the
// record. Iteration counts are deterministic; timings are hardware-local.
func measureSolveResets(polName string, p policy.Policy, n, resets int, scenario string, warm bool) solveBenchRecord {
	in := solveResetInput(n)
	ctx := policy.NewSolveContext()
	ctx.NoWarm = !warm
	if n >= 4096 {
		ctx.Metrics = obs.NewLPMetrics(obs.NewRegistry())
	}
	rng := rand.New(rand.NewSource(99))
	nextID := n
	if _, err := p.Allocate(in, ctx); err != nil {
		panic(err)
	}
	prime := ctx.Stats
	primeBuild := 0.0
	if ctx.Metrics != nil {
		primeBuild = ctx.Metrics.BuildSeconds.Sum()
	}
	start := time.Now()
	for i := 0; i < resets; i++ {
		if scenario == "drift" {
			driftWorkers(in, rng, 0.05)
		} else {
			perturbInput(in, rng, 0.01)
			if scenario == "churn" && i%4 == 1 {
				nextID = churnInput(in, nextID)
			}
		}
		if _, err := p.Allocate(in, ctx); err != nil {
			panic(err)
		}
	}
	elapsed := time.Since(start)
	mode := "cold"
	if warm {
		mode = "warm"
	}
	buildMs := 0.0
	if ctx.Metrics != nil {
		buildMs = (ctx.Metrics.BuildSeconds.Sum() - primeBuild) * 1e3 / float64(resets)
	}
	return solveBenchRecord{
		BuildMs: buildMs,
		Policy:  polName, Jobs: n, Scenario: scenario, Mode: mode, Engine: "revised", Pricing: "devex", Resets: resets,
		LPSolves:           ctx.Stats.Solves - prime.Solves,
		WarmSolves:         ctx.Stats.WarmHits - prime.WarmHits,
		RemappedSolves:     ctx.Stats.RemapHits - prime.RemapHits,
		SimplexIterations:  ctx.Stats.Iterations - prime.Iterations,
		PresolveReductions: ctx.Stats.PresolveReductions - prime.PresolveReductions,
		DualIterations:     ctx.Stats.DualIterations - prime.DualIterations,
		NsPerReset:         float64(elapsed.Nanoseconds()) / float64(resets),
	}
}

// TestWriteSolveBenchJSON regenerates BENCH_solve.json. Gated behind an env
// var so routine test runs stay fast:
//
//	GAVEL_WRITE_BENCH=1 go test -run TestWriteSolveBenchJSON        # full regeneration
//	GAVEL_WRITE_BENCH=sharded go test -run TestWriteSolveBenchJSON  # refresh only sharded_records
//	GAVEL_WRITE_BENCH=cost4096 go test -run TestWriteSolveBenchJSON # refresh only the 4096-job cost records
//
// The "sharded" mode preserves the existing per-policy records and
// re-measures only the sharded reset scenario.
func TestWriteSolveBenchJSON(t *testing.T) {
	mode := os.Getenv("GAVEL_WRITE_BENCH")
	if mode == "" {
		t.Skip("set GAVEL_WRITE_BENCH=1 to (re)generate BENCH_solve.json")
	}
	doc := map[string]any{}
	if mode == "cost4096" {
		refreshCost4096Records(t)
		return
	}
	if mode == "sharded" {
		data, err := os.ReadFile("BENCH_solve.json")
		if err != nil {
			t.Fatalf("sharded mode refreshes an existing file: %v", err)
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
	} else {
		var records []solveBenchRecord
		for _, pol := range solveResetPolicies {
			sizes := []int{128, 256, 512}
			if pol.name != "ftf" {
				// ftf's binary search multiplies a reset by ~20 solves; its
				// 1024-job cells are out of budget.
				sizes = append(sizes, 1024)
			}
			if pol.name == "cost" {
				// The 4096-job tier is cost-only for now: presolve
				// collapses the Charnes-Cooper program to a few dozen
				// effective rows, so its cold reset lands well under a
				// second, while maxmin's two-rows-per-job LP still costs
				// ~10s cold at this size (the remaining open item on the
				// LP-core roadmap).
				sizes = append(sizes, 4096)
			}
			for _, n := range sizes {
				resets := 10
				if n >= 4096 {
					resets = 4
				}
				// drift is the rhs-only scenario the dual-simplex warm path
				// repairs.
				for _, scenario := range []string{"perturb", "churn", "drift"} {
					for _, warm := range []bool{false, true} {
						records = append(records, measureSolveResets(pol.name, pol.make(), n, resets, scenario, warm))
					}
				}
			}
		}
		doc["benchmark"] = "PolicySolveReset"
		doc["unit_note"] = "resets perturb throughputs by 1%; the churn scenario additionally changes the job set (departure+arrival) on 25% of resets; the drift scenario jitters worker capacities — a pure rhs drift repaired by the dual simplex; ns_per_reset is hardware-local, iteration counts are deterministic; engine and pricing are constant (revised, devex) and kept so older records stay comparable"
		doc["records"] = records
	}

	// The sharded reset scenario: the same 1024-job reset stream through the
	// sharded scheduler service at K=1 vs K=4.
	var sharded []shardedBenchRecord
	for _, shards := range []int{1, 4} {
		rec, err := measureShardedResets(1024, shards, 20)
		if err != nil {
			t.Fatal(err)
		}
		sharded = append(sharded, rec)
	}
	doc["sharded_records"] = sharded
	doc["sharded_note"] = "1024-job resets through the sharded scheduler service (rpc.Service over in-memory shard servers): per-shard warm/remap/cold solve buckets exclude the cold prime; every 4th reset churns the job set through the router, so shard-level remaps are exercised; ns_per_reset is hardware-local and maxprocs records the measurement's GOMAXPROCS — at maxprocs=1 the K=4 speedup is the algorithmic floor alone (smaller LPs are superlinearly cheaper, ~2x); on >= 4 cores the shards' solves also run concurrently, multiplying the floor by up to min(shards, cores)"

	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_solve.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// refreshCost4096Records re-measures the six 4096-job cost cells (three
// scenarios, cold and warm) and replaces them in BENCH_solve.json, leaving
// every other record as it is.
func refreshCost4096Records(t *testing.T) {
	data, err := os.ReadFile("BENCH_solve.json")
	if err != nil {
		t.Fatalf("cost4096 mode refreshes an existing file: %v", err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var records []solveBenchRecord
	if err := json.Unmarshal(doc["records"], &records); err != nil {
		t.Fatal(err)
	}
	for i := range records {
		r := &records[i]
		if r.Policy != "cost" || r.Jobs != 4096 {
			continue
		}
		*r = measureSolveResets("cost", &policy.MinCost{}, 4096, r.Resets, r.Scenario, r.Mode == "warm")
		t.Logf("cost 4096 %s %s: %.1f ms/reset, build %.1f ms", r.Scenario, r.Mode, r.NsPerReset/1e6, r.BuildMs)
	}
	if doc["records"], err = json.Marshal(records); err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_solve.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestWarmSolveResetSavings is the shape-preserving acceptance gate:
// warm-started repeated solves must cut simplex iterations by at least 30%
// vs cold at every benchmarked size for the flagship fairness policy, and in
// aggregate for the others.
func TestWarmSolveResetSavings(t *testing.T) {
	if testing.Short() {
		t.Skip("solve-reset savings measurement is not -short")
	}
	for _, pol := range solveResetPolicies {
		for _, n := range []int{128, 256} {
			cold := measureSolveResets(pol.name, pol.make(), n, 6, "perturb", false)
			warm := measureSolveResets(pol.name, pol.make(), n, 6, "perturb", true)
			if warm.WarmSolves == 0 {
				t.Fatalf("%s jobs=%d: no warm solves", pol.name, n)
			}
			saving := 1 - float64(warm.SimplexIterations)/float64(cold.SimplexIterations)
			t.Logf("%s jobs=%d: cold iters=%d warm iters=%d (%.0f%% saved, %d/%d solves warm)",
				pol.name, n, cold.SimplexIterations, warm.SimplexIterations,
				100*saving, warm.WarmSolves, warm.LPSolves)
			if saving < 0.30 {
				t.Errorf("%s jobs=%d: warm start saved only %.0f%% of simplex iterations (need >= 30%%)",
					pol.name, n, 100*saving)
			}
		}
	}
}

// TestRemappedSolveChurnSavings is the cross-shape acceptance gate: with 25%
// of resets changing the job set (a departure + an arrival), the warm
// pipeline — positional warm starts on shape-preserving resets, remapped
// bases on churn resets — must cut simplex iterations by at least 50% vs
// cold at every benchmarked size, while actually exercising the remap. FTF's
// 512-job cold baseline alone costs minutes of binary-search solves, so that
// one cell is measured only by the BENCH_solve.json writer (where it showed
// 82% saved); the gate stops FTF at 256.
func TestRemappedSolveChurnSavings(t *testing.T) {
	if testing.Short() {
		t.Skip("churn savings measurement is not -short")
	}
	for _, pol := range solveResetPolicies {
		sizes := []int{128, 256, 512}
		if pol.name == "ftf" {
			sizes = []int{128, 256}
		}
		for _, n := range sizes {
			cold := measureSolveResets(pol.name, pol.make(), n, 8, "churn", false)
			warm := measureSolveResets(pol.name, pol.make(), n, 8, "churn", true)
			if warm.RemappedSolves == 0 {
				t.Fatalf("%s jobs=%d: churn resets never took the remapped path", pol.name, n)
			}
			saving := 1 - float64(warm.SimplexIterations)/float64(cold.SimplexIterations)
			t.Logf("%s jobs=%d: cold iters=%d warm iters=%d (%.0f%% saved, %d warm + %d remapped of %d solves)",
				pol.name, n, cold.SimplexIterations, warm.SimplexIterations,
				100*saving, warm.WarmSolves, warm.RemappedSolves, warm.LPSolves)
			if saving < 0.50 {
				t.Errorf("%s jobs=%d: churned warm pipeline saved only %.0f%% of simplex iterations (need >= 50%%)",
					pol.name, n, 100*saving)
			}
		}
	}
}

// TestPresolveReductionsNonzero asserts the LP presolve actually fires on
// every policy's allocation program — the per-solve reduction count surfaced
// through SolveStats (and from there the bench records) must be nonzero.
// Allocation LPs always give it material: maxmin and ftf rows carry implied
// upper bounds (per-job shares bounded by effective throughput), and the
// cost policy's Charnes-Cooper normalization row bounds every transformed
// column.
func TestPresolveReductionsNonzero(t *testing.T) {
	for _, pol := range solveResetPolicies {
		in := solveResetInput(64)
		ctx := policy.NewSolveContext()
		if _, err := pol.make().Allocate(in, ctx); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d presolve reductions over %d solves", pol.name, ctx.Stats.PresolveReductions, ctx.Stats.Solves)
		if ctx.Stats.PresolveReductions == 0 {
			t.Errorf("%s: presolve removed nothing on a 64-job allocation LP", pol.name)
		}
	}
}

// TestDualIterationsOnDrift asserts the dual-simplex warm path is live: on
// the rhs-only drift scenario a warm context must take at least one dual
// repair pivot.
func TestDualIterationsOnDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("drift measurement is not -short")
	}
	totalDual := 0
	for _, pol := range solveResetPolicies {
		warm := measureSolveResets(pol.name, pol.make(), 128, 6, "drift", true)
		t.Logf("%s: %d dual iterations of %d simplex iterations over %d warm solves",
			pol.name, warm.DualIterations, warm.SimplexIterations, warm.WarmSolves)
		totalDual += warm.DualIterations
	}
	if totalDual == 0 {
		t.Errorf("no policy took a single dual-simplex pivot on rhs-only drift")
	}
}
