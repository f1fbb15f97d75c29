package simulator

// Submission-plane acceptance: trace jobs streamed through Submit /
// AdmitPending instead of direct admission, per-tenant quotas isolating a
// flooding tenant from a well-behaved one, and the declared-vs-measured
// trust review quarantining a misreporting tenant and clamping its rows to
// measured values.

import (
	"math"
	"testing"

	"gavel/internal/cluster"
	"gavel/internal/policy"
	"gavel/internal/rpc"
	"gavel/internal/workload"
)

// shortJobs are 2-6 minute jobs (one round or so each); mediumJobs run long
// enough to sit through several trust reviews.
var (
	shortJobs  = workload.TraceOptions{DurationMinMinutes: 2, DurationMaxMinutes: 6}
	mediumJobs = workload.TraceOptions{DurationMinMinutes: 30, DurationMaxMinutes: 60}
)

func submissionTestConfig(trace []workload.Job, adm *rpc.AdmissionConfig) Config {
	_, c0 := rpc.NewLocalShard()
	_, c1 := rpc.NewLocalShard()
	return Config{
		Cluster:      cluster.Simulated108(),
		Policy:       &policy.MaxMinFairness{},
		Trace:        trace,
		ShardClients: []rpc.ShardClient{c0, c1},
		Admission:    adm,
		Seed:         7,
	}
}

func tenantStat(t *testing.T, res *Result, name string) rpc.TenantStatus {
	t.Helper()
	for _, ts := range res.Tenants {
		if ts.Tenant == name {
			return ts
		}
	}
	t.Fatalf("no tenant %q in result (have %v)", name, res.Tenants)
	return rpc.TenantStatus{}
}

// TestSubmissionPlaneCompletes streams one honest tenant's jobs through the
// submission plane and checks the full lifecycle: every submission is
// accepted, admitted, and resolved Done, with the queue drained — over two
// supplied shards, and over the default Config, which is a coordinator like
// any other.
func TestSubmissionPlaneCompletes(t *testing.T) {
	trace := workload.GenerateTenantTrace(3, []workload.TenantSpec{
		{Name: "alice", NumJobs: 8, LambdaPerHour: 60, Trace: shortJobs},
	})
	supplied := submissionTestConfig(trace, &rpc.AdmissionConfig{})
	byDefault := submissionTestConfig(trace, &rpc.AdmissionConfig{})
	byDefault.ShardClients = nil
	for name, cfg := range map[string]Config{"two supplied shards": supplied, "default config": byDefault} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Unfinished != 0 {
			t.Fatalf("%s: %d jobs unfinished", name, res.Unfinished)
		}
		ts := tenantStat(t, res, "alice")
		if ts.Submitted != 8 || ts.Admitted != 8 || ts.Done != 8 {
			t.Fatalf("%s: lifecycle accounting off: %+v", name, ts)
		}
		if ts.Queued != 0 || ts.Resident != 0 || ts.Quarantined {
			t.Fatalf("%s: terminal state not clean: %+v", name, ts)
		}
	}
}

// TestSubmissionPlaneDeterminism runs the same multi-tenant submission
// config twice and requires byte-identical results — including the tenant
// accounting and the decision log, which ride the fingerprint's JSON.
func TestSubmissionPlaneDeterminism(t *testing.T) {
	run := func() string {
		trace := workload.GenerateTenantTrace(11, []workload.TenantSpec{
			{Name: "a", NumJobs: 6, LambdaPerHour: 120, Trace: shortJobs},
			{Name: "b", NumJobs: 6, LambdaPerHour: 120, DeclareFactor: 3, Trace: shortJobs},
		})
		adm := &rpc.AdmissionConfig{MaxQueuePerTenant: 3, RatePerRound: 1}
		cfg := submissionTestConfig(trace, adm)
		cfg.MaxSimulatedSeconds = 100 * 360
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint(t, res)
	}
	if run() != run() {
		t.Fatal("submission-plane run is not deterministic")
	}
}

// TestFloodedTenantCannotStarveWellBehaved is the isolation acceptance: a
// tenant flooding the coordinator with a seeded burst is held to its queue
// and rate quotas, and the well-behaved tenant's jobs are all admitted and
// finished exactly as they would be without the flood.
func TestFloodedTenantCannotStarveWellBehaved(t *testing.T) {
	adm := func() *rpc.AdmissionConfig {
		return &rpc.AdmissionConfig{
			MaxQueuePerTenant:    4,
			RatePerRound:         1,
			Burst:                2,
			MaxResidentPerTenant: 6,
		}
	}
	steady := workload.TenantSpec{Name: "steady", NumJobs: 6, LambdaPerHour: 30, Trace: shortJobs}
	flood := workload.TenantSpec{Name: "flood", NumJobs: 30, LambdaPerHour: 100000, Trace: shortJobs}

	solo := submissionTestConfig(workload.GenerateTenantTrace(5, []workload.TenantSpec{steady}), adm())
	solo.MaxSimulatedSeconds = 300 * 360
	soloRes, err := Run(solo)
	if err != nil {
		t.Fatal(err)
	}
	soloSteady := tenantStat(t, soloRes, "steady")

	both := submissionTestConfig(workload.GenerateTenantTrace(5, []workload.TenantSpec{flood, steady}), adm())
	both.MaxSimulatedSeconds = 300 * 360
	bothRes, err := Run(both)
	if err != nil {
		t.Fatal(err)
	}
	bothSteady := tenantStat(t, bothRes, "steady")
	bothFlood := tenantStat(t, bothRes, "flood")

	if soloSteady.Admitted != 6 || soloSteady.Done != 6 {
		t.Fatalf("baseline steady tenant did not complete: %+v", soloSteady)
	}
	if bothSteady.Admitted < soloSteady.Admitted {
		t.Fatalf("flood reduced the well-behaved tenant's admissions: %d < %d",
			bothSteady.Admitted, soloSteady.Admitted)
	}
	if bothSteady.Done < soloSteady.Done {
		t.Fatalf("flood stranded the well-behaved tenant's jobs: %d done < %d",
			bothSteady.Done, soloSteady.Done)
	}
	if bothFlood.Refused == 0 {
		t.Fatal("the flood never hit backpressure — quotas did not engage")
	}
}

// TestMisreportingTenantQuarantined is the trust-review acceptance: a tenant
// declaring 3x its true throughput is quarantined within a bounded number of
// rounds, its clamp ratio converges to measured/declared, and the decision
// is logged; the honest tenant sharing the cluster is untouched.
func TestMisreportingTenantQuarantined(t *testing.T) {
	trace := workload.GenerateTenantTrace(9, []workload.TenantSpec{
		{Name: "honest", NumJobs: 4, LambdaPerHour: 600, Trace: mediumJobs},
		{Name: "liar", NumJobs: 4, LambdaPerHour: 600, DeclareFactor: 3, Trace: mediumJobs},
	})
	res, err := Run(submissionTestConfig(trace, &rpc.AdmissionConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Unfinished != 0 {
		t.Fatalf("%d jobs unfinished (clamping must slow, not strand)", res.Unfinished)
	}
	liar := tenantStat(t, res, "liar")
	if !liar.Quarantined {
		t.Fatalf("misreporting tenant was not quarantined: %+v", liar)
	}
	if math.Abs(liar.ClampRatio-1.0/3.0) > 0.05 {
		t.Fatalf("clamp ratio %.4f did not converge to measured/declared 1/3", liar.ClampRatio)
	}
	if honest := tenantStat(t, res, "honest"); honest.Quarantined {
		t.Fatal("honest tenant was quarantined")
	}
	quarantinedAt := int64(-1)
	for _, d := range res.Decisions {
		if d.Action == "quarantine" && d.Tenant == "liar" {
			quarantinedAt = d.Round
			break
		}
	}
	if quarantinedAt < 0 {
		t.Fatal("no quarantine decision was logged")
	}
	if quarantinedAt > 10 {
		t.Fatalf("quarantine took %d rounds; convergence is not bounded", quarantinedAt)
	}
}
