package rpc

// Submission-plane engine tests: spec parsing, edge validation, idempotent
// dedupe, backpressure with retry-after hints, the per-tenant quota ladder
// (token bucket, resident cap, SLO-ordered shedding), withdraw and
// abandoned-client lifecycles, and the declared-vs-measured quarantine clamp.
// The crash/replay acceptance for queued submissions lives in
// service_fault_test.go.

import (
	"math"
	"os"
	"reflect"
	"testing"
)

// newSubmitService builds a two-shard Service with the submission plane
// enabled (no journal unless given).
func newSubmitService(t *testing.T, journal string, adm AdmissionConfig) *Service {
	t.Helper()
	_, c0 := NewLocalShard()
	_, c1 := NewLocalShard()
	cfg := testServiceConfig(journal)
	cfg.Admission = &adm
	svc, err := NewService(cfg, []ShardClient{c0, c1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

func subArgs(tenant, key string, slo int, tput []float64) SubmitArgs {
	return SubmitArgs{
		Tenant: tenant, Key: key, Name: key,
		TotalSteps: 1000, ScaleFactor: 1, Tput: tput, SLOClass: slo,
	}
}

func mustSubmit(t *testing.T, svc *Service, a SubmitArgs) SubmitReply {
	t.Helper()
	rep, err := svc.Submit(a)
	if err != nil {
		t.Fatalf("submit %s/%s: %v", a.Tenant, a.Key, err)
	}
	return rep
}

func pollState(t *testing.T, svc *Service, tenant, key string) SubmissionState {
	t.Helper()
	rep, err := svc.Poll(PollArgs{Tenant: tenant, Key: key})
	if err != nil {
		t.Fatalf("poll %s/%s: %v", tenant, key, err)
	}
	return rep.State
}

func TestParseSubmitSpecRoundTrip(t *testing.T) {
	specs := []string{
		"tenant=acme,key=job-7",
		"tenant=acme,key=job-7,name=resnet50,steps=5000,sf=2,slo=1,tput=120;80;30",
		"tenant=t,key=k,tput=0;0",
		"tenant=t,key=k,steps=0.5",
	}
	for _, s := range specs {
		a, err := ParseSubmitSpec(s)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		b, err := ParseSubmitSpec(a.SpecString())
		if err != nil {
			t.Fatalf("reparse %q: %v", a.SpecString(), err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("round trip of %q changed: %+v vs %+v", s, a, b)
		}
	}
	bad := []string{
		"",
		"tenant=acme",                  // no key
		"key=k",                        // no tenant
		"tenant=a,key=k,bogus=1",       // unknown key
		"tenant=a,key=k,steps=NaN",     // non-finite steps
		"tenant=a,key=k,steps=-1",      // negative steps
		"tenant=a,key=k,sf=0",          // scale factor below 1
		"tenant=a,key=k,tput=1;x",      // unparsable rate
		"tenant=a,key=k,tput=1;-2",     // negative rate
		"tenant=a;b,key=k",             // reserved char in tenant
		"tenant=a,key=k,name=m,e=ssy,", // stray element
	}
	for _, s := range bad {
		if _, err := ParseSubmitSpec(s); err == nil {
			t.Fatalf("parse %q: want error", s)
		} else if CodeOf(err) != CodeBadRequest {
			t.Fatalf("parse %q: code %v, want CodeBadRequest", s, CodeOf(err))
		}
	}
}

// TestSubmitValidation: malformed submissions are refused at the edge with
// typed CodeBadRequest errors — and the same shape checks guard the direct
// Admit path the synthetic batch uses.
func TestSubmitValidation(t *testing.T) {
	svc := newSubmitService(t, "", AdmissionConfig{})
	cases := []SubmitArgs{
		subArgs("", "k", 0, []float64{1, 1}),            // no tenant
		subArgs("a", "", 0, []float64{1, 1}),            // no key
		subArgs("a", "k", 0, []float64{1}),              // wrong row length
		subArgs("a", "k", 0, []float64{1, math.NaN()}),  // NaN rate
		subArgs("a", "k", 0, []float64{1, math.Inf(1)}), // infinite rate
		subArgs("a", "k", 0, []float64{1, -1}),          // negative rate
		{Tenant: "a", Key: "k", TotalSteps: math.NaN(), Tput: []float64{1, 1}},
		{Tenant: "a", Key: "k", TotalSteps: -5, Tput: []float64{1, 1}},
	}
	for i, a := range cases {
		if _, err := svc.Submit(a); CodeOf(err) != CodeBadRequest {
			t.Fatalf("case %d: Submit(%+v) = %v, want CodeBadRequest", i, a, err)
		}
	}
	if _, err := svc.Admit(1, 1, []float64{1, math.Inf(1)}); CodeOf(err) != CodeBadRequest {
		t.Fatalf("Admit with infinite rate: %v, want CodeBadRequest", err)
	}

	// A coordinator without the plane refuses the surface outright.
	_, c0 := NewLocalShard()
	bare, err := NewService(testServiceConfig(""), []ShardClient{c0})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if _, err := bare.Submit(subArgs("a", "k", 0, []float64{1, 1})); CodeOf(err) != CodeBadRequest {
		t.Fatalf("Submit on plane-less coordinator: %v, want CodeBadRequest", err)
	}
}

// TestSubmitDedupes: resubmitting an idempotency key returns the original
// job's identity and current state instead of creating a duplicate.
func TestSubmitDedupes(t *testing.T) {
	svc := newSubmitService(t, "", AdmissionConfig{})
	first := mustSubmit(t, svc, subArgs("acme", "k0", 0, []float64{1, 1}))
	again := mustSubmit(t, svc, subArgs("acme", "k0", 0, []float64{2, 2}))
	if again.JobID != first.JobID || again.State != SubmissionQueued {
		t.Fatalf("retry returned %+v, want job %d queued", again, first.JobID)
	}
	if _, err := svc.AdmitPending(0); err != nil {
		t.Fatal(err)
	}
	after := mustSubmit(t, svc, subArgs("acme", "k0", 0, []float64{1, 1}))
	if after.JobID != first.JobID || after.State != SubmissionAdmitted {
		t.Fatalf("post-admission retry returned %+v, want job %d admitted", after, first.JobID)
	}
	if ts := svc.TenantStats(); len(ts) != 1 || ts[0].Submitted != 1 {
		t.Fatalf("dedupe double-counted: %+v", ts)
	}
}

// TestSubmitBackpressure: a tenant over its queue bound is refused with
// CodeOverload carrying a parseable retry-after hint, and the refusal is
// counted and logged without consuming a job ID.
func TestSubmitBackpressure(t *testing.T) {
	svc := newSubmitService(t, "", AdmissionConfig{MaxQueuePerTenant: 2, RatePerRound: 1})
	mustSubmit(t, svc, subArgs("acme", "k0", 0, []float64{1, 1}))
	mustSubmit(t, svc, subArgs("acme", "k1", 0, []float64{1, 1}))
	_, err := svc.Submit(subArgs("acme", "k2", 0, []float64{1, 1}))
	if CodeOf(err) != CodeOverload {
		t.Fatalf("over-queue Submit: %v, want CodeOverload", err)
	}
	if ra := RetryAfter(err); ra != 2 {
		t.Fatalf("retry-after hint %d, want 2 (2 queued / rate 1)", ra)
	}
	if IsTransient(CodeOf(err)) {
		t.Fatal("CodeOverload must not be auto-retried as transient")
	}
	ts := svc.TenantStats()[0]
	if ts.Refused != 1 || ts.Submitted != 2 {
		t.Fatalf("refusal accounting off: %+v", ts)
	}
	found := false
	for _, d := range svc.Decisions() {
		if d.Action == "refuse" && d.Key == "k2" {
			found = true
		}
	}
	if !found {
		t.Fatal("refusal was not logged in the decision log")
	}
	// The refused key is free to retry once the queue drains.
	if _, err := svc.AdmitPending(0); err != nil {
		t.Fatal(err)
	}
	if rep := mustSubmit(t, svc, subArgs("acme", "k2", 0, []float64{1, 1})); rep.State != SubmissionQueued {
		t.Fatalf("retry after drain: %+v", rep)
	}
}

// TestAdmitPendingQuotas: the token bucket rations admissions per round and
// the resident cap defers queued work until running jobs retire.
func TestAdmitPendingQuotas(t *testing.T) {
	svc := newSubmitService(t, "", AdmissionConfig{
		MaxQueuePerTenant: 10, RatePerRound: 1, Burst: 2, MaxResidentPerTenant: 3,
	})
	for _, k := range []string{"k0", "k1", "k2", "k3", "k4"} {
		mustSubmit(t, svc, subArgs("acme", k, 0, []float64{1, 1}))
	}
	admitRound := func(r int64) int {
		t.Helper()
		ids, err := svc.AdmitPending(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.EndRound(r); err != nil {
			t.Fatal(err)
		}
		return len(ids)
	}
	if n := admitRound(0); n != 2 {
		t.Fatalf("round 0 admitted %d, want the burst of 2", n)
	}
	if n := admitRound(1); n != 1 {
		t.Fatalf("round 1 admitted %d, want the refill of 1", n)
	}
	// Tokens are available but the tenant sits at its resident cap.
	if n := admitRound(2); n != 0 {
		t.Fatalf("round 2 admitted %d past the resident cap, want 0", n)
	}
	// Retiring one resident job frees a slot for the next round's drain.
	subs := svc.Submissions()
	if err := svc.Remove(subs[0].JobID); err != nil {
		t.Fatal(err)
	}
	if n := admitRound(3); n != 1 {
		t.Fatalf("round 3 admitted %d after a retirement, want 1", n)
	}
	ts := svc.TenantStats()[0]
	if ts.Admitted != 4 || ts.Queued != 1 || ts.Done != 1 {
		t.Fatalf("quota accounting off: %+v", ts)
	}
}

// TestShedLadderPrefersLowSLO: sustained overload escalates from deferring to
// shedding, rejecting the lowest SLO class first and the most recent arrival
// within a class, until the global queue is back under the high-water mark.
func TestShedLadderPrefersLowSLO(t *testing.T) {
	svc := newSubmitService(t, "", AdmissionConfig{
		MaxQueuePerTenant: 10, MaxResidentPerTenant: 1,
		ShedQueueDepth: 2, ShedAfterRounds: 2,
	})
	mustSubmit(t, svc, subArgs("acme", "k0", 1, []float64{1, 1})) // admitted round 0
	mustSubmit(t, svc, subArgs("acme", "k1", 0, []float64{1, 1}))
	mustSubmit(t, svc, subArgs("acme", "k2", 0, []float64{1, 1}))
	mustSubmit(t, svc, subArgs("acme", "k3", 1, []float64{1, 1}))
	mustSubmit(t, svc, subArgs("acme", "k4", 0, []float64{1, 1}))
	for r := int64(0); r < 3; r++ {
		if _, err := svc.AdmitPending(r); err != nil {
			t.Fatal(err)
		}
		if err := svc.EndRound(r); err != nil {
			t.Fatal(err)
		}
	}
	// Victims: lowest SLO class, most recent first — k4 then k2, never the
	// class-1 k3 while class-0 work remains.
	want := map[string]SubmissionState{
		"k0": SubmissionAdmitted,
		"k1": SubmissionQueued,
		"k2": SubmissionRejected,
		"k3": SubmissionQueued,
		"k4": SubmissionRejected,
	}
	for k, ws := range want {
		if got := pollState(t, svc, "acme", k); got != ws {
			t.Fatalf("%s: state %v, want %v", k, got, ws)
		}
	}
	if ts := svc.TenantStats()[0]; ts.Shed != 2 {
		t.Fatalf("shed count %d, want 2 (%+v)", ts.Shed, ts)
	}
	shed := 0
	for _, d := range svc.Decisions() {
		if d.Action == "shed" {
			shed++
		}
	}
	if shed != 2 {
		t.Fatalf("decision log has %d shed entries, want 2", shed)
	}
}

// TestWithdrawLifecycle: queued submissions withdraw immediately; admitted
// ones are flagged and leave on the next AdmitPending pass; terminal and
// unknown keys are safe no-ops.
func TestWithdrawLifecycle(t *testing.T) {
	svc := newSubmitService(t, "", AdmissionConfig{MaxResidentPerTenant: 1})
	a := mustSubmit(t, svc, subArgs("acme", "ka", 0, []float64{1, 1}))
	mustSubmit(t, svc, subArgs("acme", "kb", 0, []float64{1, 1}))
	if _, err := svc.AdmitPending(0); err != nil {
		t.Fatal(err)
	}
	if !svc.HasJob(a.JobID) {
		t.Fatal("first submission was not admitted")
	}
	// kb is still queued: withdrawal is immediate.
	if rep, err := svc.Withdraw(WithdrawArgs{Tenant: "acme", Key: "kb"}); err != nil || rep.State != SubmissionWithdrawn {
		t.Fatalf("withdraw queued: %+v, %v", rep, err)
	}
	// ka is admitted: flagged now, removed by the next drain.
	if rep, err := svc.Withdraw(WithdrawArgs{Tenant: "acme", Key: "ka"}); err != nil || rep.State != SubmissionAdmitted {
		t.Fatalf("withdraw admitted: %+v, %v", rep, err)
	}
	if _, err := svc.AdmitPending(1); err != nil {
		t.Fatal(err)
	}
	if got := pollState(t, svc, "acme", "ka"); got != SubmissionWithdrawn {
		t.Fatalf("flagged withdrawal did not land: %v", got)
	}
	if svc.HasJob(a.JobID) {
		t.Fatal("withdrawn job still resident in the mirror")
	}
	// Idempotent repeats and unknown keys.
	if rep, err := svc.Withdraw(WithdrawArgs{Tenant: "acme", Key: "ka"}); err != nil || rep.State != SubmissionWithdrawn {
		t.Fatalf("repeat withdraw: %+v, %v", rep, err)
	}
	if rep, err := svc.Withdraw(WithdrawArgs{Tenant: "acme", Key: "nope"}); err != nil || rep.State != SubmissionUnknown {
		t.Fatalf("unknown withdraw: %+v, %v", rep, err)
	}
	if ts := svc.TenantStats()[0]; ts.Withdrawn != 2 || ts.Resident != 0 || ts.Queued != 0 {
		t.Fatalf("withdraw accounting off: %+v", ts)
	}
}

// TestExpireAbandoned: a tenant that stops contacting the coordinator past
// the TTL has its queued and resident submissions withdrawn; a polling tenant
// is untouched.
func TestExpireAbandoned(t *testing.T) {
	svc := newSubmitService(t, "", AdmissionConfig{AbandonAfterRounds: 2, MaxResidentPerTenant: 1})
	mustSubmit(t, svc, subArgs("gone", "k0", 0, []float64{1, 1}))
	mustSubmit(t, svc, subArgs("gone", "k1", 0, []float64{1, 1})) // stays queued (resident cap)
	mustSubmit(t, svc, subArgs("alive", "k0", 0, []float64{1, 1}))
	if _, err := svc.AdmitPending(0); err != nil {
		t.Fatal(err)
	}
	for r := int64(0); r <= 2; r++ {
		if err := svc.EndRound(r); err != nil {
			t.Fatal(err)
		}
		// Only "alive" keeps polling; Poll advances its liveness clock.
		if _, err := svc.Poll(PollArgs{Tenant: "alive", Key: "k0"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.ExpireAbandoned(3); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AdmitPending(3); err != nil {
		t.Fatal(err)
	}
	if got := pollState(t, svc, "gone", "k0"); got != SubmissionWithdrawn {
		t.Fatalf("abandoned resident job: %v, want withdrawn", got)
	}
	if got := pollState(t, svc, "gone", "k1"); got != SubmissionWithdrawn {
		t.Fatalf("abandoned queued job: %v, want withdrawn", got)
	}
	if got := pollState(t, svc, "alive", "k0"); got != SubmissionAdmitted {
		t.Fatalf("live tenant's job: %v, want admitted", got)
	}
	abandons := 0
	for _, d := range svc.Decisions() {
		if d.Action == "abandon" && d.Tenant == "gone" {
			abandons++
		}
	}
	if abandons != 2 {
		t.Fatalf("decision log has %d abandon entries for tenant gone, want 2", abandons)
	}
}

// TestQuarantineClamp: a tenant declaring 3x its measured throughput is
// quarantined after the configured number of divergent reviews; its mirror
// rows are clamped to measured values (declared x ratio where unmeasured),
// and fresh admissions enter pre-clamped.
func TestQuarantineClamp(t *testing.T) {
	svc := newSubmitService(t, "", AdmissionConfig{}) // defaults: div 2.0, after 3
	rep := mustSubmit(t, svc, subArgs("liar", "k0", 0, []float64{3, 3}))
	if _, err := svc.AdmitPending(0); err != nil {
		t.Fatal(err)
	}
	for r := int64(0); r < 3; r++ {
		if err := svc.ObserveMeasured(rep.JobID, 0, 1.0); err != nil {
			t.Fatal(err)
		}
		if err := svc.EndRound(r); err != nil {
			t.Fatal(err)
		}
	}
	ts := svc.TenantStats()[0]
	if !ts.Quarantined {
		t.Fatalf("tenant not quarantined after 3 divergent reviews: %+v", ts)
	}
	if math.Abs(ts.ClampRatio-1.0/3.0) > 1e-9 {
		t.Fatalf("clamp ratio %v, want 1/3", ts.ClampRatio)
	}
	k := svc.shardOf[rep.JobID]
	row := svc.shards[k].tput[rep.JobID]
	if row[0] != 1.0 || row[1] != 1.0 {
		t.Fatalf("mirror row %v, want [1 1] (measured on type 0, declared/3 on type 1)", row)
	}
	if n := svc.QuarantinedJobs(k); n != 1 {
		t.Fatalf("QuarantinedJobs(%d) = %d, want 1", k, n)
	}
	quarantined := false
	for _, d := range svc.Decisions() {
		if d.Action == "quarantine" && d.Tenant == "liar" {
			quarantined = true
		}
	}
	if !quarantined {
		t.Fatal("quarantine decision was not logged")
	}
	// A fresh submission from the quarantined tenant installs pre-scaled.
	rep2 := mustSubmit(t, svc, subArgs("liar", "k1", 0, []float64{3, 3}))
	if _, err := svc.AdmitPending(3); err != nil {
		t.Fatal(err)
	}
	k2 := svc.shardOf[rep2.JobID]
	row2 := svc.shards[k2].tput[rep2.JobID]
	if row2[0] != 1.0 || row2[1] != 1.0 {
		t.Fatalf("fresh admission row %v, want pre-clamped [1 1]", row2)
	}
	// Quarantine is one-way: honest rounds afterward do not lift it.
	if err := svc.ObserveMeasured(rep.JobID, 0, 3.0); err != nil {
		t.Fatal(err)
	}
	if err := svc.EndRound(3); err != nil {
		t.Fatal(err)
	}
	if ts := svc.TenantStats()[0]; !ts.Quarantined {
		t.Fatal("quarantine lifted by a single honest round")
	}
}

// TestMeasuredSamplesIgnoreGarbage: samples for unknown jobs, bad types, or
// non-finite rates are dropped without error (chaos-duplicated or late
// reports must be harmless).
func TestMeasuredSamplesIgnoreGarbage(t *testing.T) {
	svc := newSubmitService(t, "", AdmissionConfig{})
	rep := mustSubmit(t, svc, subArgs("acme", "k0", 0, []float64{1, 1}))
	// Still queued: samples are dropped until admitted.
	if err := svc.ObserveMeasured(rep.JobID, 0, 5); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		id, typ int
		rate    float64
	}{
		{rep.JobID + 999, 0, 1},
		{rep.JobID, -1, 1},
		{rep.JobID, 2, 1},
		{rep.JobID, 0, math.NaN()},
		{rep.JobID, 0, math.Inf(1)},
		{rep.JobID, 0, 0},
		{rep.JobID, 0, -3},
	} {
		if err := svc.ObserveMeasured(bad.id, bad.typ, bad.rate); err != nil {
			t.Fatalf("garbage sample %+v errored: %v", bad, err)
		}
	}
	if err := svc.EndRound(0); err != nil {
		t.Fatal(err)
	}
	if ts := svc.TenantStats()[0]; ts.Quarantined {
		t.Fatalf("garbage samples moved trust state: %+v", ts)
	}
}

// TestObserveMeasuredAllocs: journaling a measured sample reuses the
// Service's record, so a sample costs no heap allocation.
func TestObserveMeasuredAllocs(t *testing.T) {
	path := t.TempDir() + "/measure.wal"
	svc := newSubmitService(t, path, AdmissionConfig{})
	rep := mustSubmit(t, svc, subArgs("acme", "k0", 0, []float64{1, 1}))
	if _, err := svc.AdmitPending(1); err != nil {
		t.Fatal(err)
	}
	size := func() int64 {
		if err := svc.j.commit(); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	before := size()
	rate := 1.0
	allocs := testing.AllocsPerRun(100, func() {
		rate += 0.25
		if err := svc.ObserveMeasured(rep.JobID, 1, rate); err != nil {
			t.Fatal(err)
		}
	})
	if size() == before {
		t.Fatal("no sample reached the journal")
	}
	if allocs != 0 {
		t.Fatalf("%.1f allocations per journaled sample, want 0", allocs)
	}
}
