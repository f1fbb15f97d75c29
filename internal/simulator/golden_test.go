package simulator

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"gavel/internal/cluster"
	"gavel/internal/estimator"
	"gavel/internal/policy"
	"gavel/internal/workload"
)

// monolithicGoldenCases are the default (NumShards: 0) configurations pinned
// against the monolithic round loop Run used to have: every policy family,
// the two inputs only that loop served (a serial policy, an unstable
// provider), and every execution knob. Each call builds fresh policy and
// provider instances — Gandiva and the estimator are stateful.
func monolithicGoldenCases() map[string]Config {
	continuous := func(jobs int, seed int64) []workload.Job {
		return workload.GenerateTrace(workload.TraceOptions{NumJobs: jobs, LambdaPerHour: 6, Seed: seed})
	}
	maxmin := func(mutate func(*Config)) Config {
		cfg := Config{Cluster: cluster.Small12(), Policy: &policy.MaxMinFairness{}, Trace: continuous(14, 5), Seed: 5}
		if mutate != nil {
			mutate(&cfg)
		}
		return cfg
	}
	cost := workload.CostTrace(12, 3)
	for i := range cost {
		cost[i].TotalSteps /= 10
		cost[i].RefDuration /= 10
		cost[i].SLO /= 10
	}
	entities := workload.GenerateTrace(workload.TraceOptions{NumJobs: 12, LambdaPerHour: 8, Entities: 3, Seed: 6})
	return map[string]Config{
		"maxmin":    maxmin(nil),
		"maxmin_ss": maxmin(func(c *Config) { c.SpaceSharing = true }),
		"ftf":       maxmin(func(c *Config) { c.Policy = &policy.FinishTimeFairness{} }),
		"mincost":   {Cluster: cluster.Small12(), Policy: &policy.MinCost{}, Trace: cost, RoundSeconds: 1200, Seed: 3},
		"mincost_slo": {
			Cluster: cluster.Small12(), Policy: &policy.MinCost{EnforceSLOs: true}, Trace: cost, RoundSeconds: 1200, Seed: 3,
		},
		"hierarchical": {
			Cluster: cluster.Small9(), Trace: entities, Seed: 6,
			Policy: &policy.Hierarchical{EntityWeight: map[int]float64{0: 1, 1: 2, 2: 3}},
		},
		"makespan": {
			Cluster: cluster.Small12(), Policy: policy.Makespan{}, Seed: 8,
			Trace: workload.GenerateTrace(workload.TraceOptions{NumJobs: 12, Seed: 8}),
		},
		"fifo":            maxmin(func(c *Config) { c.Policy = policy.FIFO{} }),
		"allox":           maxmin(func(c *Config) { c.Policy = &policy.AlloX{} }),
		"agnostic_maxmin": maxmin(func(c *Config) { c.Policy = &policy.Agnostic{Inner: &policy.MaxMinFairness{}} }),
		"gandiva_ss": maxmin(func(c *Config) {
			c.Policy, c.SpaceSharing = policy.NewGandivaSpaceSharing(5), true
		}),
		// Figure 14's estimator run at a quarter of its default size.
		"estimator_ss": {
			Cluster: cluster.Small12(), Policy: &policy.MaxMinFairness{}, RoundSeconds: 360, SpaceSharing: true, Seed: 41,
			Trace:    workload.GenerateTrace(workload.TraceOptions{NumJobs: 15, LambdaPerHour: 0.7, Seed: 41}),
			Provider: estimator.New(workload.Zoo(), workload.P100, 6, 41),
		},
		// Every job arrives at once, profiled against only 2 references: the
		// estimator fingerprints each job on first contact from one rng, and
		// with so few profiles the match depends on the draw — so the order of
		// the provider's first queries shows in the result.
		"estimator_static_ss": {
			Cluster: cluster.Small9(), Policy: &policy.MaxMinFairness{}, SpaceSharing: true, Seed: 9,
			Trace: workload.GenerateTrace(workload.TraceOptions{
				NumJobs: 16, Seed: 9, DurationMinMinutes: 30, DurationMaxMinutes: 600,
			}),
			Provider: estimator.New(workload.Zoo(), workload.P100, 2, 9),
		},
		"unstable_oracle_ss": maxmin(func(c *Config) { c.Provider, c.SpaceSharing = unstableProvider{}, true }),
		"cold_solves":        maxmin(func(c *Config) { c.ColdSolves, c.SpaceSharing = true, true }),
		"ideal":              maxmin(func(c *Config) { c.IdealExecution = true }),
		"testbed": maxmin(func(c *Config) {
			c.TestbedNoise, c.CheckpointSeconds, c.SpaceSharing = 0.04, 5, true
		}),
		"realloc4": maxmin(func(c *Config) { c.ReallocEveryRounds, c.SpaceSharing = 4, true }),
	}
}

// legacyJSON marshals r with the two keys Result carried when the golden
// digests were recorded — RevisedSolves (always LPSolves) and DenseSolves
// (always 0), from the two-engine days — re-inserted at their old position,
// just before EngineFallbacks, so the digests still compare byte for byte.
func legacyJSON(t *testing.T, r *Result) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	const at = `"EngineFallbacks":`
	legacy := fmt.Sprintf(`"RevisedSolves":%d,"DenseSolves":0,`, r.LPSolves)
	return bytes.Replace(b, []byte(at), []byte(legacy+at), 1)
}

// monolithicDigest hashes the Result fields the monolithic loop filled: job
// outcomes, cost, round and policy-call counts, and the LP solve buckets.
// The shard accounting it left zero (NumShards, ShardStats, …) is excluded.
func monolithicDigest(t *testing.T, r *Result) string {
	t.Helper()
	sum := sha256.Sum256(legacyJSON(t, &Result{
		Jobs: r.Jobs, Makespan: r.Makespan, TotalCost: r.TotalCost,
		SLOViolations: r.SLOViolations, Rounds: r.Rounds, PolicyCalls: r.PolicyCalls,
		LPSolves: r.LPSolves, WarmSolves: r.WarmSolves, RemappedSolves: r.RemappedSolves,
		SimplexIterations: r.SimplexIterations, EngineFallbacks: r.EngineFallbacks,
		PresolveReductions: r.PresolveReductions, DualIterations: r.DualIterations,
		Unfinished: r.Unfinished,
	}))
	return hex.EncodeToString(sum[:])
}

// TestRunMatchesParentMonolithicGolden pins the one round loop — rpc.Service
// over one in-memory shard — to the monolithic loop it replaced: the digests
// in testdata/monolithic_golden.json were produced by that loop at the last
// commit that had it, Gandiva and the matrix-completion estimator included,
// and Run must reproduce each byte for byte.
func TestRunMatchesParentMonolithicGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/monolithic_golden.json")
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
	cases := monolithicGoldenCases()
	if len(cases) != len(golden.Cases) {
		t.Fatalf("golden file has %d cases, the test %d", len(golden.Cases), len(cases))
	}
	for name, cfg := range cases {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := monolithicDigest(t, res); got != golden.Cases[name] {
			t.Errorf("%s: result digest %s, the parent's monolithic loop gave %s", name, got, golden.Cases[name])
		}
	}
}
