package simulator

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"

	"gavel/internal/cluster"
	"gavel/internal/policy"
	"gavel/internal/rpc"
	"gavel/internal/workload"
)

func shardedTestConfig(numShards int, jobs int) Config {
	return Config{
		Cluster: cluster.Simulated108(),
		Policy:  &policy.MaxMinFairness{},
		Trace: workload.GenerateTrace(workload.TraceOptions{
			NumJobs: jobs, LambdaPerHour: 12, Seed: 7,
		}),
		NumShards:            numShards,
		RebalanceEveryRounds: 5,
		SpaceSharing:         true,
		Seed:                 7,
	}
}

// fingerprint serializes everything deterministic about a Result. PolicyTime
// is wall-clock and inherently run-local (the monolithic engine's is too),
// so it is zeroed; every other field — per-job outcomes, float cost sums,
// solve buckets, per-shard stats — must be byte-identical.
func fingerprint(t *testing.T, r *Result) string {
	t.Helper()
	c := *r
	c.PolicyTime = 0
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestShardedMatchesParentGolden pins the NumShards path — rpc.Service over
// in-memory shard servers — to the engine it replaced: the digests in
// testdata/sharded_golden.json were produced by the in-process
// cluster.Coordinator loop at the last commit that had one, and the results
// must still be byte-identical.
func TestShardedMatchesParentGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/sharded_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Arch  string
		Cases map[string]string
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	if runtime.GOARCH != golden.Arch {
		t.Skipf("digests were recorded on %s", golden.Arch)
	}
	cases := map[string]Config{}
	for _, k := range []int{1, 2, 4} {
		cases[fmt.Sprintf("k%d", k)] = shardedTestConfig(k, 24)
	}
	ll := shardedTestConfig(3, 24)
	ll.ShardRoute = cluster.RouteLeastLoaded
	ll.ReallocEveryRounds = 4
	cases["k3_least_loaded_realloc4"] = ll
	if len(cases) != len(golden.Cases) {
		t.Fatalf("golden file has %d cases, the test %d", len(golden.Cases), len(cases))
	}
	for name, cfg := range cases {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256([]byte(fingerprint(t, res)))
		if got := hex.EncodeToString(sum[:]); got != golden.Cases[name] {
			t.Errorf("%s: result digest %s, the parent's in-process engine gave %s", name, got, golden.Cases[name])
		}
	}
}

// TestShardedRunsUncatalogedPolicy covers the in-memory policy hand-off: a
// policy the rpc catalog cannot name (the heterogeneity-agnostic wrapper)
// runs on NumShards in-memory shard servers, and is still refused when the
// shards are caller-supplied clients that would have to build it by name.
func TestShardedRunsUncatalogedPolicy(t *testing.T) {
	cfg := shardedTestConfig(2, 12)
	cfg.Policy = &policy.Agnostic{Inner: &policy.MaxMinFairness{}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unfinished != 0 || res.NumShards != 2 || res.LPSolves == 0 {
		t.Fatalf("agnostic policy on 2 shards: %d unfinished, %d shards, %d solves", res.Unfinished, res.NumShards, res.LPSolves)
	}
	_, c0 := rpc.NewLocalShard()
	_, c1 := rpc.NewLocalShard()
	cfg.NumShards, cfg.ShardClients = 0, []rpc.ShardClient{c0, c1}
	if err := cfg.Validate(); err == nil {
		t.Fatal("expected Validate to refuse an uncataloged policy over supplied shard clients")
	}
}

// TestShardedIdealExecution covers ideal execution on the sharded loop: every
// job advances exactly per its shard's allocation (no mechanism round), two
// shards complete, and one shard owning the whole cluster reproduces the
// monolithic ideal run job for job.
func TestShardedIdealExecution(t *testing.T) {
	cfg := shardedTestConfig(2, 16)
	cfg.IdealExecution = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unfinished != 0 {
		t.Fatalf("K=2 ideal run left %d jobs unfinished", res.Unfinished)
	}

	cfg.NumShards, cfg.RebalanceEveryRounds = 1, 0
	one, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NumShards = 0
	mono, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mono.Jobs {
		a, b := one.Jobs[i], mono.Jobs[i]
		if a.ID != b.ID || a.Completion != b.Completion || a.CostDollars != b.CostDollars {
			t.Errorf("job %d: K=1 ideal (%v, $%v) vs monolithic ideal (%v, $%v)", b.ID, a.Completion, a.CostDollars, b.Completion, b.CostDollars)
		}
	}
	if one.Makespan != mono.Makespan || one.TotalCost != mono.TotalCost {
		t.Errorf("K=1 ideal makespan/cost %v/%v vs monolithic %v/%v", one.Makespan, one.TotalCost, mono.Makespan, mono.TotalCost)
	}
}

// TestValidateOwnsShardedPreconditions pins Validate as the single home of
// the sharded preconditions: everything Run refuses, Validate refuses first.
func TestValidateOwnsShardedPreconditions(t *testing.T) {
	bad := map[string]func(*Config){
		"unstable provider": func(c *Config) { c.Provider = unstableProvider{} },
		"serial policy":     func(c *Config) { c.Policy = policy.NewGandivaSpaceSharing(1) },
		"wrapped serial":    func(c *Config) { c.Policy = &policy.Agnostic{Inner: policy.NewGandivaSpaceSharing(1)} },
		"shard count":       func(c *Config) { _, cl := rpc.NewLocalShard(); c.ShardClients = []rpc.ShardClient{cl} },
		"admission unsharded": func(c *Config) {
			c.NumShards = 0
			c.Admission = &rpc.AdmissionConfig{}
		},
	}
	for name, mutate := range bad {
		cfg := shardedTestConfig(2, 4)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a configuration Run refuses", name)
		}
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: Run accepted the configuration", name)
		}
	}
	if err := shardedTestConfig(2, 4).Validate(); err != nil {
		t.Fatalf("valid sharded config refused: %v", err)
	}
}

// TestShardedDeterminism is the no-ordering-leak acceptance: the same trace
// and shard count produce byte-identical results across runs and across
// GOMAXPROCS values, so neither map iteration nor goroutine scheduling can
// reach the merged allocations, assignments, or stats.
func TestShardedDeterminism(t *testing.T) {
	cfg := shardedTestConfig(3, 24)
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, base)

	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(t, again); got != want {
		t.Fatal("sharded run is not reproducible across runs")
	}

	prev := runtime.GOMAXPROCS(0)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		r, err := Run(cfg)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(t, r); got != want {
			t.Fatalf("sharded run differs at GOMAXPROCS=%d", procs)
		}
	}
}

// TestShardedRunCompletes sanity-checks the sharded engine end to end: all
// jobs finish, stats land in the sharded buckets, per-shard buckets sum to
// the global ones, and rebalancing actually migrated jobs warm.
func TestShardedRunCompletes(t *testing.T) {
	res, err := Run(shardedTestConfig(4, 32))
	if err != nil {
		t.Fatal(err)
	}
	if res.Unfinished != 0 {
		t.Fatalf("%d jobs unfinished", res.Unfinished)
	}
	if res.NumShards != 4 || len(res.ShardStats) != 4 {
		t.Fatalf("shard stats missing: NumShards=%d len=%d", res.NumShards, len(res.ShardStats))
	}
	var solves, warm, remapped, iters, admitted int
	for _, st := range res.ShardStats {
		solves += st.LPSolves
		warm += st.WarmSolves
		remapped += st.RemappedSolves
		iters += st.SimplexIterations
		admitted += st.JobsAdmitted
		if st.ColdSolves != st.LPSolves-st.WarmSolves-st.RemappedSolves {
			t.Fatalf("shard %d: inconsistent solve buckets %+v", st.Shard, st)
		}
	}
	if solves != res.LPSolves || warm != res.WarmSolves || remapped != res.RemappedSolves || iters != res.SimplexIterations {
		t.Fatalf("per-shard buckets do not sum to the merged stats: %+v", res.ShardStats)
	}
	if admitted != len(res.Jobs) {
		t.Fatalf("admitted %d jobs across shards, trace has %d", admitted, len(res.Jobs))
	}
	if res.LPSolves == 0 || res.WarmSolves+res.RemappedSolves == 0 {
		t.Fatalf("sharded run never warm-started: %+v", res)
	}
}

// TestShardedMigrationsAreWarm checks the simulator-level half of the
// migration acceptance: a run with rebalancing enabled migrates jobs, and
// those migrations show up as remapped solves — the post-rebalance solve
// count stays consistent with at most one cold solve per shard (its first).
func TestShardedMigrationsAreWarm(t *testing.T) {
	res, err := Run(shardedTestConfig(3, 32))
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations == 0 || res.Rebalances == 0 {
		t.Skipf("trace produced no migrations (%d/%d)", res.Migrations, res.Rebalances)
	}
	if res.RemappedSolves == 0 {
		t.Fatal("migrations happened but no solve took the remapped path")
	}
	for _, st := range res.ShardStats {
		if st.MigratedIn == 0 || st.LPSolves == 0 {
			continue
		}
		// A shard that received migrants cold-solves only its genuinely
		// first LPs (before any seed exists) and the rare churn event where
		// no basis column survives; migrations must not push the cold
		// bucket beyond that floor. maxmin solves two labeled LPs per
		// allocation, so the floor is 2 plus a small no-survivor allowance.
		if limit := 2 + st.LPSolves/10; st.ColdSolves > limit {
			t.Errorf("shard %d: %d cold solves (> %d) despite warm migration (stats %+v)",
				st.Shard, st.ColdSolves, limit, st)
		}
		if st.RemappedSolves == 0 {
			t.Errorf("shard %d received migrants but never remapped: %+v", st.Shard, st)
		}
	}
}

// TestShardedK1MatchesMonolithicOutcomes pins the K=1 sharded engine to the
// monolithic loop: one shard owns the whole cluster and the whole job set,
// so every job must complete at the same time with the same cost in both
// engines (the engines share the allocation, mechanism, and progress code).
func TestShardedK1MatchesMonolithicOutcomes(t *testing.T) {
	cfg := shardedTestConfig(1, 24)
	cfg.RebalanceEveryRounds = 0
	sharded, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NumShards = 0
	mono, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sharded.Jobs) != len(mono.Jobs) {
		t.Fatal("job count mismatch")
	}
	for i := range mono.Jobs {
		a, b := sharded.Jobs[i], mono.Jobs[i]
		if a.ID != b.ID {
			t.Fatalf("job order diverged at %d", i)
		}
		if math.Abs(a.Completion-b.Completion) > 1e-6 || math.Abs(a.CostDollars-b.CostDollars) > 1e-6 {
			t.Errorf("job %d: sharded (%.3f, $%.4f) vs monolithic (%.3f, $%.4f)",
				a.ID, a.Completion, a.CostDollars, b.Completion, b.CostDollars)
		}
	}
	if sharded.Makespan != mono.Makespan {
		t.Errorf("makespan %v vs %v", sharded.Makespan, mono.Makespan)
	}
}

// TestShardedRejectsUnstableProvider pins the documented restriction: a
// provider with cross-pair learning cannot back per-shard caches.
func TestShardedRejectsUnstableProvider(t *testing.T) {
	cfg := shardedTestConfig(2, 4)
	cfg.Provider = unstableProvider{}
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected an error for a non-stable provider")
	}
}

// unstableProvider is an Oracle that refuses the StableProvider contract.
type unstableProvider struct{ Oracle }

func (unstableProvider) StableEstimates() bool { return false }

// TestShardedRejectsSerialPolicy pins the concurrency guard: policies that
// mutate unsynchronized state in Allocate (Gandiva's random exploration)
// must be rejected rather than raced across shards — including when hidden
// behind the heterogeneity-agnostic wrapper.
func TestShardedRejectsSerialPolicy(t *testing.T) {
	cfg := shardedTestConfig(2, 4)
	cfg.Policy = policy.NewGandivaSpaceSharing(1)
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected an error for a serial-only policy")
	}
	cfg.Policy = &policy.Agnostic{Inner: policy.NewGandivaSpaceSharing(1)}
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected an error for a wrapped serial-only policy")
	}
}
