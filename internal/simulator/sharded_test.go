package simulator

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"

	"gavel/internal/cluster"
	"gavel/internal/estimator"
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

// fingerprint serializes everything deterministic about a Result, in the
// golden digests' legacy layout (legacyJSON). PolicyTime is wall-clock and
// inherently run-local, so it is zeroed; every other field — per-job
// outcomes, float cost sums, solve buckets, per-shard stats — must be
// byte-identical.
func fingerprint(t *testing.T, r *Result) string {
	t.Helper()
	c := *r
	c.PolicyTime = 0
	return string(legacyJSON(t, &c))
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

// TestShardedIdealExecution covers ideal execution across shards: every job
// advances exactly per its shard's allocation (no mechanism round) and two
// shards complete. What one shard owning the whole cluster must produce is
// pinned by the "ideal" case of TestRunMatchesParentMonolithicGolden.
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
}

// TestValidateOwnsShardedPreconditions pins Validate as the single home of
// the shard preconditions: everything Run refuses, Validate refuses first.
func TestValidateOwnsShardedPreconditions(t *testing.T) {
	bad := map[string]func(*Config){
		"serial policy":  func(c *Config) { c.Policy = policy.NewGandivaSpaceSharing(1) },
		"wrapped serial": func(c *Config) { c.Policy = &policy.Agnostic{Inner: policy.NewGandivaSpaceSharing(1)} },
		"shard count":    func(c *Config) { _, cl := rpc.NewLocalShard(); c.ShardClients = []rpc.ShardClient{cl} },
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

// TestShardedK1MatchesMonolithicOutcomes pins the default run as K=1: a
// Config that names no shard count and one that asks for one shard are the
// same run, byte for byte. What that run must produce is pinned against the
// monolithic loop it replaced by TestRunMatchesParentMonolithicGolden.
func TestShardedK1MatchesMonolithicOutcomes(t *testing.T) {
	cfg := shardedTestConfig(1, 24)
	cfg.RebalanceEveryRounds = 0
	one, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NumShards = 0
	zero, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if zero.NumShards != 1 || len(zero.ShardStats) != 1 {
		t.Fatalf("default run reports %d shards, %d shard stats", zero.NumShards, len(zero.ShardStats))
	}
	if fingerprint(t, zero) != fingerprint(t, one) {
		t.Fatal("NumShards 0 and NumShards 1 are different runs")
	}
}

// unstableProvider is an Oracle that refuses the StableProvider contract.
type unstableProvider struct{ Oracle }

func (unstableProvider) StableEstimates() bool { return false }

// contactRecorder is an unstable provider that logs the order in which
// Colocated first mentions each job, and every call that names the later
// trace position first.
type contactRecorder struct {
	Oracle
	pos       map[int]int // job ID -> trace position
	seen      map[int]bool
	contacts  []int // trace positions in first-contact order
	backwards int
}

func (contactRecorder) StableEstimates() bool { return false }

func (r *contactRecorder) Colocated(a, b *workload.Job, j int) (float64, float64, bool) {
	if r.pos[a.ID] > r.pos[b.ID] {
		r.backwards++
	}
	for _, job := range []*workload.Job{a, b} {
		if !r.seen[job.ID] {
			r.seen[job.ID] = true
			r.contacts = append(r.contacts, r.pos[job.ID])
		}
	}
	return r.Oracle.Colocated(a, b, j)
}

// TestUnstableProviderShardedDeterministic covers what replaced the
// stable-provider precondition: a provider with cross-pair learning (the
// matrix-completion estimator) runs on any shard count, its rows re-queried
// per stale shard before each allocation, and the result is a pure function
// of the config. The order of those queries is part of the contract — the
// estimator fingerprints a job from one rng stream on first contact — so a
// recording provider checks it: lower trace position first in every call, and
// on one shard jobs first contacted in ascending trace position.
func TestUnstableProviderShardedDeterministic(t *testing.T) {
	run := func() string {
		cfg := shardedTestConfig(2, 16)
		cfg.Provider = estimator.New(workload.Zoo(), workload.P100, 2, 7)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Unfinished != 0 {
			t.Fatalf("%d jobs unfinished under the estimator", res.Unfinished)
		}
		return fingerprint(t, res)
	}
	prev := runtime.GOMAXPROCS(1)
	serial := run()
	runtime.GOMAXPROCS(4)
	parallel := run()
	runtime.GOMAXPROCS(prev)
	if serial != parallel {
		t.Fatal("estimator run on 2 shards differs between GOMAXPROCS 1 and 4")
	}

	for _, k := range []int{0, 2} {
		cfg := shardedTestConfig(k, 16)
		rec := &contactRecorder{pos: map[int]int{}, seen: map[int]bool{}}
		for i, j := range cfg.Trace { // GenerateTrace emits jobs in arrival order
			rec.pos[j.ID] = i
		}
		cfg.Provider = rec
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		if len(rec.contacts) < 8 {
			t.Fatalf("K=%d: only %d jobs ever reached the provider", k, len(rec.contacts))
		}
		if rec.backwards != 0 {
			t.Errorf("K=%d: %d Colocated calls named the later trace position first", k, rec.backwards)
		}
		if k == 0 && !sort.IntsAreSorted(rec.contacts) {
			t.Errorf("first-contact order is not ascending trace position: %v", rec.contacts)
		}
	}
}

// TestShardedRejectsSerialPolicy pins the concurrency guard where it belongs:
// a policy that mutates unsynchronized state in Allocate (Gandiva's random
// exploration) is refused when several in-memory shards would solve on the
// one instance concurrently — including when hidden behind the
// heterogeneity-agnostic wrapper — and runs on one shard, named or default.
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
	for _, k := range []int{0, 1} {
		cfg := shardedTestConfig(k, 4)
		cfg.Policy = policy.NewGandivaSpaceSharing(1)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("NumShards %d refused a serial-only policy: %v", k, err)
		}
		if res.Unfinished != 0 {
			t.Fatalf("NumShards %d: %d jobs unfinished", k, res.Unfinished)
		}
	}
}
