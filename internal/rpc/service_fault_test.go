package rpc

// Durability and fault-handling tests for the Service: coordinator
// kill-and-restart over a journal (byte-identical resumption), graceful
// degradation under transient Allocate failures, and recovery from
// concurrent shard loss — including destinations that die mid-recovery.

import (
	"fmt"
	"path/filepath"
	"testing"

	"gavel/internal/cluster"
	"gavel/internal/policy"
)

func testClusterSpec() cluster.Spec {
	return cluster.Spec{Types: []cluster.AcceleratorType{
		{Name: "v100", Count: 4, PricePerHour: cluster.PriceV100, PerServer: 4},
		{Name: "k80", Count: 4, PricePerHour: cluster.PriceK80, PerServer: 4},
	}}
}

func testServiceConfig(journal string) ServiceConfig {
	return ServiceConfig{
		Cluster: testClusterSpec(),
		Policy:  PolicySpec{Name: "max_min_fairness"},
		Journal: journal,
	}
}

func testJobInfo(id int) policy.JobInfo {
	return policy.JobInfo{
		Weight:         1,
		RemainingSteps: 1000 + float64(id),
		TotalSteps:     2000,
		ArrivalSeq:     id,
	}
}

// testTput is a deterministic per-job throughput row over the test cluster's
// two accelerator types.
func testTput(id int) []float64 {
	return []float64{1 + float64(id%5)*0.25, 0.5 + float64(id%3)*0.125}
}

// allocFingerprint renders every shard's mirrored allocation — IDs, unit
// shapes, and the full X matrix — into a string. Byte-identical runs produce
// byte-identical fingerprints (float formatting is exact for equal bits).
func allocFingerprint(svc *Service) string {
	var s string
	for k := 0; k < svc.NumShards(); k++ {
		alloc, ids := svc.Alloc(k)
		if alloc == nil {
			s += fmt.Sprintf("shard %d: nil\n", k)
			continue
		}
		s += fmt.Sprintf("shard %d: ids=%v units=%v x=%v\n", k, ids, alloc.Units, alloc.X)
	}
	return s
}

// driveRound runs the round protocol once against svc, which must have sealed
// exactly r rounds (so the round built is r+1, on a fresh and on a resumed
// service alike): admissions keyed on r (two jobs land at r = 0..2, one more
// at r = 5 and 7), a forced reallocation of any shard that has gone three
// rounds without one, a snapshot every other round. Returns the
// post-allocation fingerprint.
func driveRound(t *testing.T, svc *Service, r int) string {
	t.Helper()
	if svc.Round() != int64(r) {
		t.Fatalf("service has sealed %d rounds, driver expected %d", svc.Round(), r)
	}
	admit := func(id, sf int) error {
		_, err := svc.Admit(id, sf, testTput(id))
		return err
	}
	_, err := svc.RunRound(&RoundPlan{
		RoundSeconds:  10,
		ReallocEvery:  3,
		SnapshotEvery: 2,
		Done:          func(int) bool { return false },
		Info:          testJobInfo,
		Arrive: func() error {
			switch {
			case r < 3:
				if err := admit(r*2, 1); err != nil {
					return err
				}
				return admit(r*2+1, 2)
			case r == 5 || r == 7:
				return admit(6+r, 1)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("round %d: %v", r+1, err)
	}
	return allocFingerprint(svc)
}

// TestServiceRestartReplaysByteIdentical is the durability acceptance: a
// coordinator killed after round 5 and restarted over its journal must
// replay to the exact pre-crash mirror and produce byte-identical
// allocations for the remaining rounds, against shard daemons that survived
// the coordinator's death.
func TestServiceRestartReplaysByteIdentical(t *testing.T) {
	const rounds = 12
	dir := t.TempDir()

	// Reference: one uninterrupted run.
	var want [rounds]string
	{
		_, c0 := NewLocalShard()
		_, c1 := NewLocalShard()
		svc, err := NewService(testServiceConfig(filepath.Join(dir, "ref.wal")), []ShardClient{c0, c1})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rounds; r++ {
			want[r] = driveRound(t, svc, r)
		}
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Interrupted run: fresh daemons, same schedule, coordinator "killed"
	// after round 5 (the Service value is abandoned without Close — every
	// sealed round is already fsynced).
	journal := filepath.Join(dir, "crash.wal")
	srv0, c0 := NewLocalShard()
	srv1, c1 := NewLocalShard()
	svc, err := NewService(testServiceConfig(journal), []ShardClient{c0, c1})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r <= 5; r++ {
		if got := driveRound(t, svc, r); got != want[r] {
			t.Fatalf("pre-crash round %d diverged from reference:\n got %s\nwant %s", r, got, want[r])
		}
	}
	preCrashJobs := svc.JobShards()
	svc = nil // the crash

	// Restart: a new Service over the same journal and the surviving daemons.
	resumed, err := NewService(testServiceConfig(journal),
		[]ShardClient{NewLocalShardClient(srv0), NewLocalShardClient(srv1)})
	if err != nil {
		t.Fatalf("restart over journal: %v", err)
	}
	defer resumed.Close()
	if !resumed.Resumed() {
		t.Fatal("restarted service did not detect the journal")
	}
	if resumed.Round() != 6 {
		t.Fatalf("resumed at round %d, want 6", resumed.Round())
	}
	if got := allocFingerprint(resumed); got != want[5] {
		t.Fatalf("replayed mirror allocation differs from pre-crash state:\n got %s\nwant %s", got, want[5])
	}
	got := resumed.JobShards()
	if len(got) != len(preCrashJobs) {
		t.Fatalf("replayed %d jobs, had %d before the crash", len(got), len(preCrashJobs))
	}
	for id, k := range preCrashJobs {
		if got[id] != k {
			t.Fatalf("job %d replayed onto shard %d, was on %d", id, got[id], k)
		}
	}
	// A resumed driver re-submits its batch; admission must be idempotent.
	if k, err := resumed.Admit(0, 1, testTput(0)); err != nil || k != preCrashJobs[0] {
		t.Fatalf("re-admitting a resident job: shard %d, err %v", k, err)
	}
	for r := 6; r < rounds; r++ {
		if got := driveRound(t, resumed, r); got != want[r] {
			t.Fatalf("post-restart round %d diverged from uninterrupted run:\n got %s\nwant %s", r, got, want[r])
		}
	}
}

// TestJournalCarriesNoWallClock pins the other half of the replay contract:
// the journal holds nothing a stub clock could not reproduce. Snapshots carry
// the shard's status, whose PolicyTime is wall-clock: it must be journaled
// zeroed (every other counter intact) while the live mirror keeps the
// measured value, so two coordinators driven through the same schedule write
// journals of the same length.
func TestJournalCarriesNoWallClock(t *testing.T) {
	var sizes [2]int64
	for i := range sizes {
		path := filepath.Join(t.TempDir(), "j.wal")
		_, c0 := NewLocalShard()
		_, c1 := NewLocalShard()
		svc, err := NewService(testServiceConfig(path), []ShardClient{c0, c1})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 8; r++ {
			driveRound(t, svc, r)
		}
		if svc.shards[0].status.PolicyTime <= 0 {
			t.Fatal("the live mirror lost the shard's measured policy time")
		}
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
		snapshots := 0
		j, st, err := openJournal(path, func(n int, rec *journalRecord) error {
			if rec.Kind == recSnapshot {
				snapshots++
				if got := rec.Snapshot.Status; got.PolicyTime != 0 || got.PolicyCalls == 0 {
					t.Errorf("record %d journals policy time %v over %d calls", n, got.PolicyTime, got.PolicyCalls)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		j.close()
		if snapshots == 0 {
			t.Fatal("schedule journaled no snapshot")
		}
		sizes[i] = st.bytes
	}
	if sizes[0] != sizes[1] {
		t.Fatalf("same schedule wrote journals of %d and %d bytes", sizes[0], sizes[1])
	}
}

// TestServiceRestartReconcilesBareDaemons covers the double-crash case: the
// coordinator AND a shard daemon restart together. The journal rebuilds the
// mirror; reconcile detects the bare daemon and re-installs its jobs with
// the last snapshot's seeds, so the run continues with every job placed.
func TestServiceRestartReconcilesBareDaemons(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "j.wal")
	_, c0 := NewLocalShard()
	srv1, c1 := NewLocalShard()
	svc, err := NewService(testServiceConfig(journal), []ShardClient{c0, c1})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r <= 5; r++ {
		driveRound(t, svc, r)
	}
	jobs := svc.JobShards()
	svc = nil // coordinator crash

	// Shard 0's daemon also restarts, losing all state; shard 1 survives.
	freshSrv0, _ := NewLocalShard()
	resumed, err := NewService(testServiceConfig(journal),
		[]ShardClient{NewLocalShardClient(freshSrv0), NewLocalShardClient(srv1)})
	if err != nil {
		t.Fatalf("restart with a bare daemon: %v", err)
	}
	defer resumed.Close()
	st, err := resumed.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for id, k := range jobs {
		found := false
		for _, j := range st[k].Jobs {
			if j == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("job %d not re-installed on restarted shard %d", id, k)
		}
	}
	for r := 6; r < 9; r++ {
		driveRound(t, resumed, r)
	}
	// Rounds 6..8 admit one more job (round 7) on top of the replayed set.
	if resumed.NumJobs() != len(jobs)+1 {
		t.Fatalf("%d jobs after reconcile, want %d", resumed.NumJobs(), len(jobs)+1)
	}
}

// flakyClient runs a ShardClient's calls through an Intercept hook with an
// injectable per-method fault, simulating a slow or dead daemon without
// sockets: a non-nil error from fail replaces the call.
type flakyClient struct {
	ShardClient
	fail func(method string) error
}

func newFlakyClient(inner ShardClient) *flakyClient {
	f := &flakyClient{}
	f.ShardClient = Intercept(inner, func(method string, op func() error) error {
		if f.fail != nil {
			if err := f.fail(method); err != nil {
				return err
			}
		}
		return op()
	})
	return f
}

// TestServiceDegradesThenEscalates drives the degradation ladder: a shard
// whose Allocate fails transiently serves its last allocation (flagged
// stale), and after StaleAfterRounds consecutive stale rounds it escalates
// to down and its jobs recover onto the survivor.
func TestServiceDegradesThenEscalates(t *testing.T) {
	_, inner0 := NewLocalShard()
	_, inner1 := NewLocalShard()
	f1 := newFlakyClient(inner1)
	cfg := testServiceConfig("")
	cfg.StaleAfterRounds = 3
	svc, err := NewService(cfg, []ShardClient{inner0, f1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for id := 0; id < 6; id++ {
		if _, err := svc.Admit(id, 1, testTput(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.AllocateAll(0, testJobInfo, false); err != nil {
		t.Fatal(err)
	}
	if err := svc.EndRound(0); err != nil {
		t.Fatal(err)
	}
	oldAlloc, oldIDs := svc.Alloc(1)
	if oldAlloc == nil {
		t.Fatal("shard 1 has no allocation before the fault")
	}

	// Shard 1 goes slow-but-alive: Allocate times out, everything else works.
	f1.fail = func(method string) error {
		if method == "Allocate" {
			return Errorf(CodeTimeout, "injected timeout")
		}
		return nil
	}
	for r := int64(1); r <= 2; r++ {
		for k := 0; k < svc.NumShards(); k++ {
			if err := svc.MarkDirty(k); err != nil {
				t.Fatal(err)
			}
		}
		if err := svc.AllocateAll(r, testJobInfo, false); err != nil {
			t.Fatalf("round %d: AllocateAll should degrade, got %v", r, err)
		}
		if svc.Down(1) {
			t.Fatalf("round %d: shard escalated before StaleAfterRounds", r)
		}
		gotAlloc, gotIDs := svc.Alloc(1)
		if gotAlloc != oldAlloc || fmt.Sprint(gotIDs) != fmt.Sprint(oldIDs) {
			t.Fatalf("round %d: degraded shard did not keep its last allocation", r)
		}
		if svc.StaleAllocs(1) != int(r) {
			t.Fatalf("round %d: StaleAllocs = %d, want %d", r, svc.StaleAllocs(1), r)
		}
		if err := svc.EndRound(r); err != nil {
			t.Fatal(err)
		}
	}
	if svc.DegradedRounds() != 2 {
		t.Fatalf("DegradedRounds = %d, want 2", svc.DegradedRounds())
	}

	// Third consecutive stale round: escalate to down, recover onto shard 0.
	if err := svc.MarkDirty(1); err != nil {
		t.Fatal(err)
	}
	if err := svc.AllocateAll(3, testJobInfo, false); err != nil {
		t.Fatal(err)
	}
	if !svc.Down(1) {
		t.Fatal("shard did not escalate to down after StaleAfterRounds stale rounds")
	}
	migs, err := svc.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(migs) == 0 || svc.AnyDown() {
		t.Fatalf("recovery after escalation moved %d jobs, AnyDown=%v", len(migs), svc.AnyDown())
	}
	for id, k := range svc.JobShards() {
		if k != 0 {
			t.Fatalf("job %d still on shard %d after recovery", id, k)
		}
	}
}

// TestServiceRecoverConcurrentLoss is the double-failure case: two of three
// daemons die in the same round — including one that fails while being used
// as a recovery destination — and a single Recover pass must land every job
// on the survivor, stranding none.
func TestServiceRecoverConcurrentLoss(t *testing.T) {
	_, inner0 := NewLocalShard()
	_, inner1 := NewLocalShard()
	_, inner2 := NewLocalShard()
	f0 := newFlakyClient(inner0)
	f1 := newFlakyClient(inner1)
	svc, err := NewService(testServiceConfig(filepath.Join(t.TempDir(), "j.wal")),
		[]ShardClient{f0, f1, inner2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for id := 0; id < 9; id++ {
		if _, err := svc.Admit(id, 1, testTput(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.AllocateAll(0, testJobInfo, false); err != nil {
		t.Fatal(err)
	}
	if err := svc.SnapshotAll(); err != nil {
		t.Fatal(err)
	}
	total := svc.NumJobs()

	// Both daemons die at once, but only shard 0's death has been observed
	// when Recover starts: shard 1 is still marked live, so the pass picks
	// it as the least-loaded destination, watches the install fail, and must
	// recover shard 1's own jobs in the same pass.
	dead := func(string) error { return Errorf(CodeShardDown, "injected death") }
	f0.fail = dead
	if err := svc.AllocateAll(1, testJobInfo, true); err != nil {
		t.Fatal(err)
	}
	if !svc.Down(0) {
		t.Fatal("shard 0 not marked down")
	}
	f1.fail = dead
	migs, err := svc.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if svc.AnyDown() {
		t.Fatal("jobs still stranded on dead shards after Recover")
	}
	if !svc.Down(0) || !svc.Down(1) {
		t.Fatalf("down flags: shard0=%v shard1=%v, want both true", svc.Down(0), svc.Down(1))
	}
	if svc.NumJobs() != total {
		t.Fatalf("%d jobs after concurrent loss, want %d", svc.NumJobs(), total)
	}
	for id, k := range svc.JobShards() {
		if k != 2 {
			t.Fatalf("job %d on shard %d, want survivor 2", id, k)
		}
	}
	if svc.Recoveries() != len(migs) {
		t.Fatalf("Recoveries() = %d, migrations reported = %d", svc.Recoveries(), len(migs))
	}
	// The survivor reallocates over the full job set.
	if err := svc.AllocateAll(2, testJobInfo, false); err != nil {
		t.Fatal(err)
	}
	if _, ids := svc.Alloc(2); len(ids) != total {
		t.Fatalf("survivor allocated over %d jobs, want %d", len(ids), total)
	}
}

// TestServiceTransientMembershipFailureMarksDown: an Install that keeps
// failing transiently (retries exhausted below the Service) cannot be
// degraded around — the shard is marked down and admission re-routes.
func TestServiceTransientMembershipFailureMarksDown(t *testing.T) {
	_, inner0 := NewLocalShard()
	_, inner1 := NewLocalShard()
	f0 := newFlakyClient(inner0)
	svc, err := NewService(testServiceConfig(""), []ShardClient{f0, inner1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	f0.fail = func(method string) error {
		if method == "Install" {
			return Errorf(CodeUnavailable, "injected partition")
		}
		return nil
	}
	// Job 0 hash-routes to shard 0, whose Install fails transiently; it must
	// land on shard 1 with shard 0 marked down.
	k, err := svc.Admit(0, 1, testTput(0))
	if err != nil {
		t.Fatal(err)
	}
	if k != 1 || !svc.Down(0) {
		t.Fatalf("admit landed on shard %d (down0=%v), want re-route to 1 with shard 0 down", k, svc.Down(0))
	}
}

// submitFaultConfig is the submission-plane durability config: rationed
// admission so some submissions are still queued when the coordinator dies.
func submitFaultConfig(journal string) ServiceConfig {
	cfg := testServiceConfig(journal)
	cfg.Admission = &AdmissionConfig{RatePerRound: 1, Burst: 1, MaxQueuePerTenant: 8}
	return cfg
}

// ingressFingerprint renders the whole externally visible submission-plane
// state — submissions, tenant accounting, decision log — for byte-identity
// checks across a crash.
func ingressFingerprint(svc *Service) string {
	return fmt.Sprintf("subs=%+v\ntenants=%+v\ndecisions=%+v\n",
		svc.Submissions(), svc.TenantStats(), svc.Decisions())
}

// driveSubmitRound runs the round protocol once with the submission plane in
// the loop, against a svc that has sealed r rounds: scripted submissions and a
// withdrawal land by r, the queue drains under the token bucket, admitted jobs
// get measured samples, and the round seals. Identical in the reference and
// crash runs.
func driveSubmitRound(t *testing.T, svc *Service, r int) string {
	t.Helper()
	if svc.Round() != int64(r) {
		t.Fatalf("service has sealed %d rounds, driver expected %d", svc.Round(), r)
	}
	submitAt := map[int][]SubmitArgs{
		0: {
			{Tenant: "a", Key: "k0", Name: "m0", TotalSteps: 900, ScaleFactor: 1, Tput: testTput(0)},
			{Tenant: "a", Key: "k1", Name: "m1", TotalSteps: 900, ScaleFactor: 1, Tput: testTput(1)},
			{Tenant: "b", Key: "k0", Name: "m2", TotalSteps: 900, ScaleFactor: 2, Tput: testTput(2), SLOClass: 1},
		},
		1: {
			{Tenant: "a", Key: "k2", Name: "m3", TotalSteps: 900, ScaleFactor: 1, Tput: testTput(3)},
			{Tenant: "b", Key: "k1", Name: "m4", TotalSteps: 900, ScaleFactor: 1, Tput: testTput(4)},
		},
	}
	var rates []MeasuredSample
	_, err := svc.RunRound(&RoundPlan{
		RoundSeconds:  10,
		SnapshotEvery: 2,
		Done:          func(int) bool { return false },
		Info:          testJobInfo,
		Arrive: func() error {
			for _, a := range submitAt[r] {
				if _, err := svc.Submit(a); err != nil {
					return fmt.Errorf("submit %s/%s: %w", a.Tenant, a.Key, err)
				}
			}
			if r == 2 {
				if _, err := svc.Withdraw(WithdrawArgs{Tenant: "a", Key: "k2"}); err != nil {
					return fmt.Errorf("withdraw: %w", err)
				}
			}
			return nil
		},
		Progress: func(sh ShardRound) (bool, []PairObservation, []MeasuredSample) {
			rates = rates[:0]
			for _, id := range sh.IDs {
				rates = append(rates, MeasuredSample{JobID: id, Type: 0, Rate: 0.5 + float64(id%3)*0.25})
			}
			return false, nil, rates
		},
	})
	if err != nil {
		t.Fatalf("round %d: %v", r+1, err)
	}
	return allocFingerprint(svc) + ingressFingerprint(svc)
}

// TestSubmissionsSurviveCoordinatorCrash is the streaming-plane durability
// acceptance: the coordinator is killed while submissions sit queued but
// unadmitted (the token bucket admits one per tenant per round), and the
// restarted coordinator must replay the ingress byte-identically — queued
// work still queued, dedupe still effective, and the remaining rounds
// producing the exact allocations of an uninterrupted run.
func TestSubmissionsSurviveCoordinatorCrash(t *testing.T) {
	const rounds = 6
	dir := t.TempDir()

	var want [rounds]string
	{
		_, c0 := NewLocalShard()
		_, c1 := NewLocalShard()
		svc, err := NewService(submitFaultConfig(filepath.Join(dir, "ref.wal")), []ShardClient{c0, c1})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rounds; r++ {
			want[r] = driveSubmitRound(t, svc, r)
		}
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
	}

	journal := filepath.Join(dir, "crash.wal")
	srv0, c0 := NewLocalShard()
	srv1, c1 := NewLocalShard()
	svc, err := NewService(submitFaultConfig(journal), []ShardClient{c0, c1})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r <= 1; r++ {
		if got := driveSubmitRound(t, svc, r); got != want[r] {
			t.Fatalf("pre-crash round %d diverged:\n got %s\nwant %s", r, got, want[r])
		}
	}
	queued := 0
	for _, si := range svc.Submissions() {
		if si.State == SubmissionQueued {
			queued++
		}
	}
	if queued == 0 {
		t.Fatal("test premise broken: no submissions queued at the crash point")
	}
	preCrash := allocFingerprint(svc) + ingressFingerprint(svc)
	svc = nil // the crash

	resumed, err := NewService(submitFaultConfig(journal),
		[]ShardClient{NewLocalShardClient(srv0), NewLocalShardClient(srv1)})
	if err != nil {
		t.Fatalf("restart over journal: %v", err)
	}
	defer resumed.Close()
	if !resumed.Resumed() {
		t.Fatal("restarted service did not detect the journal")
	}
	if got := allocFingerprint(resumed) + ingressFingerprint(resumed); got != preCrash {
		t.Fatalf("replayed state differs from pre-crash:\n got %s\nwant %s", got, preCrash)
	}
	// A client retrying its stream against the resumed coordinator dedupes.
	rep, err := resumed.Submit(SubmitArgs{
		Tenant: "a", Key: "k0", Name: "m0", TotalSteps: 900, ScaleFactor: 1, Tput: testTput(0),
	})
	if err != nil {
		t.Fatalf("re-submit after resume: %v", err)
	}
	var wantID int
	for _, si := range resumed.Submissions() {
		if si.Tenant == "a" && si.Key == "k0" {
			wantID = si.JobID
		}
	}
	if rep.JobID != wantID {
		t.Fatalf("resumed dedupe assigned job %d, original was %d", rep.JobID, wantID)
	}
	for r := 2; r < rounds; r++ {
		if got := driveSubmitRound(t, resumed, r); got != want[r] {
			t.Fatalf("post-restart round %d diverged:\n got %s\nwant %s", r, got, want[r])
		}
	}
	// Every submission resolved identically: the withdrawn key is withdrawn,
	// the rest admitted.
	for _, si := range resumed.Submissions() {
		switch {
		case si.Tenant == "a" && si.Key == "k2":
			if si.State != SubmissionWithdrawn {
				t.Fatalf("withdrawn submission replayed as %v", si.State)
			}
		case si.State != SubmissionAdmitted:
			t.Fatalf("submission %s/%s ended %v, want admitted", si.Tenant, si.Key, si.State)
		}
	}
}
