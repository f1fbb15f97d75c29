package chaos

import (
	"strings"
	"testing"
	"time"

	"gavel/internal/obs"
	"gavel/internal/rpc"
)

// nopClient is a stub shard transport that succeeds at everything and counts
// how many times each method body actually runs — which is how the dup tests
// distinguish "delivered twice" from "logged twice".
type nopClient struct {
	delivered map[string]int
}

func newNopClient() *nopClient { return &nopClient{delivered: map[string]int{}} }

func (n *nopClient) hit(m string) { n.delivered[m]++ }

func (n *nopClient) Hello(args rpc.HelloArgs) (rpc.HelloReply, error) {
	n.hit("Hello")
	return rpc.HelloReply{}, nil
}
func (n *nopClient) Configure(cfg rpc.ShardConfig) error { n.hit("Configure"); return nil }
func (n *nopClient) Install(args rpc.InstallArgs) error  { n.hit("Install"); return nil }
func (n *nopClient) Remove(args rpc.RemoveArgs) error    { n.hit("Remove"); return nil }
func (n *nopClient) Extract(args rpc.ExtractArgs) (rpc.ExtractReply, error) {
	n.hit("Extract")
	return rpc.ExtractReply{}, nil
}
func (n *nopClient) Allocate(args rpc.AllocateArgs) (rpc.AllocateReply, error) {
	n.hit("Allocate")
	return rpc.AllocateReply{}, nil
}
func (n *nopClient) AssignRound(args rpc.AssignRoundArgs) (rpc.AssignRoundReply, error) {
	n.hit("AssignRound")
	return rpc.AssignRoundReply{}, nil
}
func (n *nopClient) Observe(args rpc.ObserveArgs) error { n.hit("Observe"); return nil }
func (n *nopClient) ObserveJob(args rpc.ObserveJobArgs) error {
	n.hit("ObserveJob")
	return nil
}
func (n *nopClient) Snapshot() (rpc.SnapshotReply, error) {
	n.hit("Snapshot")
	return rpc.SnapshotReply{}, nil
}
func (n *nopClient) Status() (rpc.ShardStatus, error) { n.hit("Status"); return rpc.ShardStatus{}, nil }
func (n *nopClient) Ping() error                      { n.hit("Ping"); return nil }
func (n *nopClient) Close() error                     { return nil }

func TestParseSpec(t *testing.T) {
	c, err := ParseSpec("seed=42,drop=0.05,dup=0.01,delay=0.1,maxdelay=20ms,partition=40+10,crash=200")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		Seed: 42, Drop: 0.05, Dup: 0.01, Delay: 0.1, MaxDelay: 20 * time.Millisecond,
		PartitionStart: 40, PartitionCalls: 10, CrashAfter: 200,
	}
	if c != want {
		t.Fatalf("ParseSpec = %+v, want %+v", c, want)
	}
	if !c.Enabled() {
		t.Fatal("parsed spec reports disabled")
	}

	c, err = ParseSpec("")
	if err != nil {
		t.Fatal(err)
	}
	if c.Enabled() {
		t.Fatal("empty spec reports enabled")
	}

	for _, bad := range []string{
		"frobnicate=1",      // unknown key
		"drop",              // not key=value
		"drop=lots",         // bad float
		"partition=40",      // missing +calls
		"partition=x+10",    // bad start
		"maxdelay=20lustra", // bad duration
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// drive pushes a fixed mixed-method call sequence through a client, ignoring
// errors: the shape the determinism tests replay under different seeds.
func drive(c rpc.ShardClient, calls int) {
	for i := 0; i < calls; i++ {
		switch i % 5 {
		case 0:
			c.Ping()
		case 1:
			c.Install(rpc.InstallArgs{JobID: i})
		case 2:
			c.Allocate(rpc.AllocateArgs{Round: int64(i)})
		case 3:
			c.Observe(rpc.ObserveArgs{})
		case 4:
			c.Status()
		}
	}
}

// TestScheduleDeterministic: the acceptance property — a fixed seed reproduces
// the identical fault schedule across two runs; a different seed does not.
func TestScheduleDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, Drop: 0.2, Dup: 0.2, Delay: 0.1, MaxDelay: time.Microsecond}
	run := func(cfg Config) string {
		tr := Wrap(newNopClient(), cfg, 3).(*Transport)
		drive(tr, 200)
		return tr.ScheduleString()
	}

	a, b := run(cfg), run(cfg)
	if a == "" {
		t.Fatal("200 calls at drop=0.2 injected no faults")
	}
	if a != b {
		t.Fatalf("same seed produced different schedules:\n--- run 1\n%s--- run 2\n%s", a, b)
	}

	cfg2 := cfg
	cfg2.Seed = 8
	if c := run(cfg2); c == a {
		t.Fatal("different seeds produced identical 200-call schedules")
	}
}

// TestShardStreamsIndependent: each shard draws from its own stream, so two
// shards under one config see different (but individually reproducible) faults.
func TestShardStreamsIndependent(t *testing.T) {
	cfg := Config{Seed: 7, Drop: 0.3}
	run := func(shard int) string {
		tr := Wrap(newNopClient(), cfg, shard).(*Transport)
		drive(tr, 200)
		return tr.ScheduleString()
	}
	if run(0) == run(1) {
		t.Fatal("shards 0 and 1 drew identical fault streams")
	}
}

// TestCrashPermanent: after CrashAfter calls the transport is dead for good —
// every later call fails with CodeShardDown and exactly one crash is logged.
func TestCrashPermanent(t *testing.T) {
	inner := newNopClient()
	tr := Wrap(inner, Config{Seed: 1, CrashAfter: 5}, 0).(*Transport)
	for i := 0; i < 5; i++ {
		if err := tr.Ping(); err != nil {
			t.Fatalf("call %d before crash failed: %v", i+1, err)
		}
	}
	for i := 0; i < 10; i++ {
		err := tr.Ping()
		if rpc.CodeOf(err) != rpc.CodeShardDown {
			t.Fatalf("post-crash call %d returned %v, want CodeShardDown", i+1, err)
		}
	}
	if got := inner.delivered["Ping"]; got != 5 {
		t.Fatalf("daemon saw %d pings after crash at 5", got)
	}
	crashes := 0
	for _, e := range tr.Schedule() {
		if e.Kind == FaultCrash {
			crashes++
		}
	}
	if crashes != 1 {
		t.Fatalf("%d crash events logged, want 1", crashes)
	}
}

// TestPartitionWindow: calls inside [start, start+calls) fail with
// CodeUnavailable; calls on either side of the window go through.
func TestPartitionWindow(t *testing.T) {
	tr := Wrap(newNopClient(), Config{Seed: 1, PartitionStart: 3, PartitionCalls: 2}, 0).(*Transport)
	for i := 1; i <= 6; i++ {
		err := tr.Ping()
		inWindow := i >= 3 && i < 5
		if inWindow && rpc.CodeOf(err) != rpc.CodeUnavailable {
			t.Fatalf("call %d inside partition returned %v, want CodeUnavailable", i, err)
		}
		if !inWindow && err != nil {
			t.Fatalf("call %d outside partition failed: %v", i, err)
		}
	}
	for _, e := range tr.Schedule() {
		if e.Kind != FaultPartition {
			t.Fatalf("unexpected %s event during pure partition config", e.Kind)
		}
	}
}

// TestDupSparesExtract: at dup=1.0 every idempotent call is delivered twice,
// but Extract — the one non-idempotent call — is always delivered exactly once.
func TestDupSparesExtract(t *testing.T) {
	inner := newNopClient()
	tr := Wrap(inner, Config{Seed: 1, Dup: 1.0}, 0).(*Transport)
	tr.Install(rpc.InstallArgs{JobID: 1})
	tr.Ping()
	if _, err := tr.Extract(rpc.ExtractArgs{JobID: 1}); err != nil {
		t.Fatal(err)
	}
	if inner.delivered["Install"] != 2 || inner.delivered["Ping"] != 2 {
		t.Fatalf("idempotent calls delivered %v, want twice each", inner.delivered)
	}
	if inner.delivered["Extract"] != 1 {
		t.Fatalf("Extract delivered %d times, want exactly 1", inner.delivered["Extract"])
	}
	for _, e := range tr.Schedule() {
		if e.Method == "Extract" && e.Kind == FaultDup {
			t.Fatal("Extract was scheduled for duplication")
		}
	}
}

// TestSetupPlaneExempt: Hello and Configure bypass injection entirely — a
// config that drops everything still lets the handshake through.
func TestSetupPlaneExempt(t *testing.T) {
	inner := newNopClient()
	tr := Wrap(inner, Config{Seed: 1, Drop: 1.0}, 0)
	if _, err := tr.Hello(rpc.HelloArgs{Version: rpc.ProtocolVersion}); err != nil {
		t.Fatalf("Hello blocked by chaos: %v", err)
	}
	if err := tr.Configure(rpc.ShardConfig{}); err != nil {
		t.Fatalf("Configure blocked by chaos: %v", err)
	}
	if err := tr.Ping(); rpc.CodeOf(err) != rpc.CodeUnavailable {
		t.Fatalf("round-plane call at drop=1.0 returned %v, want CodeUnavailable", err)
	}
}

// TestWrapDisabled: a zero config is a no-op wrapper, not a transport.
func TestWrapDisabled(t *testing.T) {
	inner := newNopClient()
	if got := Wrap(inner, Config{}, 0); got != rpc.ShardClient(inner) {
		t.Fatal("disabled config did not return the inner client unchanged")
	}
}

// TestStackLayersRetryOverChaos: the stack puts the retry loop above the
// fault transport — a partition shorter than the retry budget is invisible to
// the caller and every masked attempt is in the schedule — counts faults and
// call outcomes on the one plane, and adds nothing it was not asked for.
func TestStackLayersRetryOverChaos(t *testing.T) {
	inner := newNopClient()
	if got, tr := Stack(inner, Config{}, 0, rpc.CallPolicy{}); got != rpc.ShardClient(inner) || tr != nil {
		t.Fatal("no faults and no policy should leave the client as it was")
	}

	plane := &obs.Plane{Reg: obs.NewRegistry()}
	pol := rpc.CallPolicy{Retries: 3, Backoff: time.Microsecond, Obs: plane}
	c, tr := Stack(inner, Config{Seed: 1, PartitionStart: 1, PartitionCalls: 2}, 0, pol)
	if tr == nil {
		t.Fatal("an enabled config returned no transport")
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("retry did not mask a 2-call partition: %v", err)
	}
	if got := len(tr.Schedule()); got != 2 || inner.delivered["Ping"] != 1 {
		t.Fatalf("%d faults logged, %d pings delivered; want 2 and 1", got, inner.delivered["Ping"])
	}
	dump := plane.Registry().DumpDeterministic()
	for _, series := range []string{
		`gavel_chaos_faults_total{kind="partition"} 2`,
		`gavel_rpc_retries_total{method="Ping"} 2`,
	} {
		if !strings.Contains(dump, series) {
			t.Errorf("registry is missing %s:\n%s", series, dump)
		}
	}
}
