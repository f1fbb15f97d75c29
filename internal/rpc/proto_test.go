package rpc

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"gavel/internal/core"
	"gavel/internal/lp"
	"gavel/internal/obs"
	"gavel/internal/policy"
	"gavel/internal/scheduler"
)

// solveBasis produces a real warm-start basis by solving a small LP, so the
// wire test exercises the exact payload shard daemons exchange.
func solveBasis(t *testing.T) *lp.Basis {
	t.Helper()
	p := lp.NewProblem(lp.Maximize)
	x := p.AddVar(3, "x")
	y := p.AddVar(2, "y")
	p.AddConstraint([]lp.Term{{Var: x, Coeff: 1}, {Var: y, Coeff: 1}}, lp.LE, 4)
	p.AddConstraint([]lp.Term{{Var: x, Coeff: 1}, {Var: y, Coeff: 3}}, lp.LE, 6)
	res, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Basis == nil {
		t.Fatal("solve returned no basis")
	}
	return res.Basis
}

// TestWireRoundTripAllMessages pushes control-plane messages with realistic
// values — including a real lp.Basis inside policy.Seed — through the codec
// both ways and demands the decoded value be deeply equal to the original.
// TestMessageCodecCarriesEveryField covers every field of every message.
func TestWireRoundTripAllMessages(t *testing.T) {
	basis := solveBasis(t)
	seeds := []policy.Seed{{
		Label: "throughput",
		IDs:   []lp.ColumnID{"j1", "j2"},
		Basis: basis,
	}}
	msgs := []any{
		&HelloArgs{Version: 2, Role: "coordinator"},
		&HelloReply{Version: 2},
		&RegisterArgs{Version: 2, Addr: "w:1", AcceleratorType: "v100", Server: "s0"},
		&RegisterReply{Version: 2, WorkerID: 3, RoundSeconds: 360},
		&LeaseArgs{WorkerID: 3},
		&Lease{JobIDs: []int{7, 9}, RoundSeconds: 360, Renewed: true},
		&ThroughputReport{WorkerID: 3, JobID: 7, StepsPerSecond: 41.25},
		&ShardConfig{
			Index: 1, WorkerInts: []int{4, 2, 2}, PerServer: []int{4},
			Prices: []float64{3.1, 0.9, 0.7}, Policy: PolicySpec{Name: "max_min_fairness"},
			PairGainThreshold: 1.25, MaxPairsPerJob: 8,
		},
		&InstallArgs{
			JobID: 7, ScaleFactor: 2, Tput: []float64{40, 20, 10},
			Pairs:    []PairRows{{A: 7, B: 9, Ta: []float64{18, 9, 4.5}, Tb: []float64{12, 6, 3}}},
			Seeds:    seeds,
			Migrated: true,
		},
		&RemoveArgs{JobID: 7},
		&ExtractArgs{JobID: 7},
		&ExtractReply{ScaleFactor: 2, Tput: []float64{40, 20, 10}, Seeds: seeds},
		&AllocateArgs{Round: 12, Infos: []policy.JobInfo{{ID: 7, Weight: 2, RemainingSteps: 100, Elapsed: 720}}},
		&AllocateReply{IDs: []int{7, 9}, Units: []core.Unit{{Jobs: []int{7}}}, X: [][]float64{{0.5, 0.25, 0.25}}},
		&AssignRoundArgs{Round: 12, RoundSeconds: 360, SkipJobs: []int{9}},
		&AssignRoundReply{Assigns: []scheduler.Assignment{{UnitIdx: 0, Type: 1}}},
		&ObserveArgs{Obs: []PairObservation{{A: 7, B: 9, Type: 0, Ta: 17.5, Tb: 11.25}}},
		&SnapshotReply{Seeds: seeds, Status: ShardStatus{Index: 1, Jobs: []int{7, 9}, Admitted: 2, PolicyTime: time.Second}},
		&ShardStatus{Index: 1, Jobs: []int{7}, Admitted: 3, MigratedIn: 1, MigratedOut: 2, PolicyCalls: 4},
	}
	for _, m := range msgs {
		if got, _ := codecRoundTrip(t, m); !reflect.DeepEqual(got, m) {
			t.Errorf("%T did not survive the wire:\n got %+v\nwant %+v", m, got, m)
		}
	}
}

// TestBasisSurvivesWire checks a basis carried in a migration payload is not
// just equal but usable: warm-starting from the decoded basis must behave exactly like
// warm-starting from the original.
func TestBasisSurvivesWire(t *testing.T) {
	orig := solveBasis(t)
	got, _ := codecRoundTrip(t, &ExtractReply{Seeds: []policy.Seed{{Label: "throughput", Basis: orig}}})
	decoded := got.(*ExtractReply).Seeds[0].Basis
	if !reflect.DeepEqual(decoded, orig) {
		t.Fatalf("basis mutated in flight:\n got %+v\nwant %+v", decoded, orig)
	}
	if decoded.NumRows() != orig.NumRows() || decoded.NumVars() != orig.NumVars() {
		t.Fatalf("basis shape changed: %d/%d vs %d/%d rows/vars",
			decoded.NumRows(), decoded.NumVars(), orig.NumRows(), orig.NumVars())
	}

	build := func() *lp.Problem {
		p := lp.NewProblem(lp.Maximize)
		x := p.AddVar(3, "x")
		y := p.AddVar(2, "y")
		p.AddConstraint([]lp.Term{{Var: x, Coeff: 1}, {Var: y, Coeff: 1}}, lp.LE, 4)
		p.AddConstraint([]lp.Term{{Var: x, Coeff: 1}, {Var: y, Coeff: 3}}, lp.LE, 6)
		return p
	}
	fromOrig, err := build().SolveFrom(orig)
	if err != nil {
		t.Fatalf("SolveFrom(original): %v", err)
	}
	fromWire, err := build().SolveFrom(decoded)
	if err != nil {
		t.Fatalf("SolveFrom(decoded): %v", err)
	}
	if fromOrig.Objective != fromWire.Objective || fromOrig.WarmStarted != fromWire.WarmStarted {
		t.Fatalf("decoded basis solves differently: obj %v warm %v vs obj %v warm %v",
			fromWire.Objective, fromWire.WarmStarted, fromOrig.Objective, fromOrig.WarmStarted)
	}
}

// TestShardHandshake drives the version gate of the shard surface over a
// real socket: current version accepted, version 0 (an unversioned v1 peer)
// rejected with the typed code.
func TestShardHandshake(t *testing.T) {
	srv := NewShardServer()
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()

	c, err := dial(addr, shardServiceName, 0, CodeShardDown)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	var reply HelloReply
	if err := c.call("Hello", &HelloArgs{Version: ProtocolVersion, Role: "test"}, &reply); err != nil {
		t.Fatalf("Hello at current version: %v", err)
	}
	if reply.Version != ProtocolVersion {
		t.Fatalf("server version = %d, want %d", reply.Version, ProtocolVersion)
	}

	err = c.call("Hello", &HelloArgs{Version: 0}, &reply)
	if CodeOf(err) != CodeVersionMismatch {
		t.Fatalf("Hello at version 0: err = %v (code %v), want CodeVersionMismatch", err, CodeOf(err))
	}
}

// TestTypedErrorsCrossTheWire verifies the gavelrpc[N] prefix survives
// crossing the wire as a string: a typed server-side error comes back
// with its code recoverable via CodeOf.
func TestTypedErrorsCrossTheWire(t *testing.T) {
	srv := NewShardServer()
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	c, err := DialShard(addr)
	if err != nil {
		t.Fatalf("DialShard: %v", err)
	}
	defer c.Close()

	// Install before Configure: the daemon has no identity yet.
	err = c.Install(InstallArgs{JobID: 1, ScaleFactor: 1, Tput: []float64{1}})
	if CodeOf(err) != CodeNotConfigured {
		t.Fatalf("Install on bare daemon: err = %v (code %v), want CodeNotConfigured", err, CodeOf(err))
	}
	// And the parsed form retains the message.
	if p := ParseError(err); p.Msg == "" {
		t.Fatalf("parsed error lost its message: %+v", p)
	}
}

// TestConfigureRefusesMalformedShape: a config whose per-server device count
// is not positive, or whose worker slice holds a negative count, is refused
// with CodeBadRequest over a real socket — either would otherwise panic the
// daemon on its first round — and the same daemon then accepts a valid
// config and assigns rounds, each skip mask replacing the last.
func TestConfigureRefusesMalformedShape(t *testing.T) {
	srv := NewShardServer()
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	c, err := DialShard(addr)
	if err != nil {
		t.Fatalf("DialShard: %v", err)
	}
	defer c.Close()

	valid := ShardConfig{
		WorkerInts: []int{2, 2, 2}, PerServer: []int{8, 8, 8}, Prices: []float64{3, 2, 1},
		Policy: PolicySpec{Name: "max_min_fairness"},
	}
	for _, bad := range []ShardConfig{
		{WorkerInts: []int{8, 8, 8}, PerServer: []int{8, 0, 8}},
		{WorkerInts: []int{8, 8, 8}, PerServer: []int{8, -4, 8}},
		{WorkerInts: []int{4, -1, 4}, PerServer: []int{8, 8, 8}},
	} {
		bad.Prices, bad.Policy = valid.Prices, valid.Policy
		if err := c.Configure(bad); CodeOf(err) != CodeBadRequest {
			t.Fatalf("Configure(%v / %v): err = %v (code %v), want CodeBadRequest", bad.WorkerInts, bad.PerServer, err, CodeOf(err))
		}
	}
	if err := c.Configure(valid); err != nil {
		t.Fatalf("valid Configure after refusals: %v", err)
	}
	for id := 0; id < 2; id++ {
		if err := c.Install(InstallArgs{JobID: id, ScaleFactor: 1, Tput: []float64{1, 1, 1}}); err != nil {
			t.Fatal(err)
		}
	}
	alloc, err := c.Allocate(AllocateArgs{Round: 1, Infos: []policy.JobInfo{{ID: 0, Weight: 1}, {ID: 1, Weight: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	for round, skip := range [][]int{{0}, {1}} {
		rep, err := c.AssignRound(AssignRoundArgs{Round: int64(round + 1), RoundSeconds: 360, SkipJobs: skip})
		if err != nil {
			t.Fatalf("round %d: %v", round+1, err)
		}
		ran := map[int]bool{}
		for _, a := range rep.Assigns {
			ran[alloc.IDs[alloc.Units[a.UnitIdx].Jobs[0]]] = true
		}
		if ran[skip[0]] || !ran[1-skip[0]] {
			t.Fatalf("round %d, skipping job %d: ran %v", round+1, skip[0], ran)
		}
	}
}

// TestShardRefusesMalformedRows: over a real socket, a throughput row with
// the wrong entry count or a NaN, negative or infinite rate is refused with
// CodeBadRequest by Install (the job's row or a pair's) and by ObserveJob,
// and the shard is left as it was: the refused install is not resident, and
// the job whose push was refused keeps its row, so the next Allocate solves
// and gives it a share.
func TestShardRefusesMalformedRows(t *testing.T) {
	srv := NewShardServer()
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	c, err := DialShard(addr)
	if err != nil {
		t.Fatalf("DialShard: %v", err)
	}
	defer c.Close()
	err = c.Configure(ShardConfig{
		WorkerInts: []int{2, 2, 2}, PerServer: []int{8, 8, 8}, Prices: []float64{3, 2, 1},
		Policy: PolicySpec{Name: "max_min_fairness"},
	})
	if err != nil {
		t.Fatal(err)
	}
	good := []float64{3, 2, 1}
	if err := c.Install(InstallArgs{JobID: 0, ScaleFactor: 1, Tput: good}); err != nil {
		t.Fatal(err)
	}
	bad := [][]float64{{1}, {1, 1, 1, 1}, {1, math.NaN(), 1}, {1, -5, 1}, {math.Inf(1), 1, 1}}
	for _, row := range bad {
		if err := c.ObserveJob(ObserveJobArgs{JobID: 0, Tput: row}); CodeOf(err) != CodeBadRequest {
			t.Errorf("ObserveJob(%v): err = %v (code %v), want CodeBadRequest", row, err, CodeOf(err))
		}
		if err := c.Install(InstallArgs{JobID: 1, ScaleFactor: 1, Tput: row}); CodeOf(err) != CodeBadRequest {
			t.Errorf("Install(%v): err = %v (code %v), want CodeBadRequest", row, err, CodeOf(err))
		}
		pair := InstallArgs{JobID: 1, ScaleFactor: 1, Tput: good, Pairs: []PairRows{{A: 1, B: 0, Ta: good, Tb: row}}}
		if err := c.Install(pair); CodeOf(err) != CodeBadRequest {
			t.Errorf("Install with pair row %v: err = %v (code %v), want CodeBadRequest", row, err, CodeOf(err))
		}
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Jobs, []int{0}) || st.Admitted != 1 {
		t.Fatalf("refused installs changed the shard: jobs %v, admitted %d", st.Jobs, st.Admitted)
	}
	alloc, err := c.Allocate(AllocateArgs{Round: 1, Infos: []policy.JobInfo{{ID: 0, Weight: 1}}})
	if err != nil {
		t.Fatalf("Allocate after refused pushes: %v", err)
	}
	share := 0.0
	for _, x := range alloc.X[0] {
		share += x
	}
	if !(share > 0) {
		t.Fatalf("job 0's allocation row %v is empty after refused pushes", alloc.X[0])
	}
}

// TestLeaseHandshakeRejectsUnversionedWorker: a v1 worker (no Version field,
// decodes as 0) must be turned away at registration, not garbled later.
func TestLeaseHandshakeRejectsUnversionedWorker(t *testing.T) {
	s := NewScheduler(1, fixedSource{})
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer s.Close()

	c, err := dial(addr, leaseServiceName, 0, CodeUnavailable)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	var reply RegisterReply
	err = c.call("RegisterWorker", &RegisterArgs{AcceleratorType: "v100"}, &reply)
	if CodeOf(err) != CodeVersionMismatch {
		t.Fatalf("unversioned register: err = %v (code %v), want CodeVersionMismatch", err, CodeOf(err))
	}
}

// leaseScheduler is a scheduler on a stub clock, leasing job 1 to worker 0
// by plan, with two registered v100 workers and live telemetry.
func leaseScheduler(t *testing.T) (*Scheduler, *schedulerRPC, *time.Time) {
	t.Helper()
	s := NewScheduler(1, fixedSource{0: {1}}) // 1-second rounds -> 1-second TTL
	s.SetObs(obs.NewPlane())
	now := time.Unix(100, 0)
	s.clock = func() time.Time { return now }
	s.Submit(JobSpec{JobID: 1, TotalSteps: 1e9})
	r := &schedulerRPC{s: s}
	for w := 0; w < 2; w++ {
		var reply RegisterReply
		if err := r.RegisterWorker(RegisterArgs{Version: ProtocolVersion, AcceleratorType: "v100", Server: "s0"}, &reply); err != nil {
			t.Fatal(err)
		}
	}
	return s, r, &now
}

// TestLeaseExpiry: a worker that stops calling loses its lease one round
// after it was granted — the lease table frees it and the expiry counter
// counts it — and when it returns, its next lease is not a renewal.
func TestLeaseExpiry(t *testing.T) {
	s, r, now := leaseScheduler(t)
	var l Lease
	if err := r.LeaseMicroTask(LeaseArgs{WorkerID: 0}, &l); err != nil {
		t.Fatal(err)
	}
	if l.Empty || l.JobIDs[0] != 1 {
		t.Fatalf("worker 0 lease = %+v, want job 1", l)
	}

	// Worker 0 goes silent past the TTL; worker 1's lease call expires it.
	*now = now.Add(1500 * time.Millisecond)
	if err := r.LeaseMicroTask(LeaseArgs{WorkerID: 1}, &l); err != nil {
		t.Fatal(err)
	}
	if !l.Empty {
		t.Fatalf("worker 1 leased %+v outside the plan", l)
	}
	if st := s.StatusText(); !strings.Contains(st, "worker 0  type v100  server s0  leased job -1") {
		t.Fatalf("expired lease still held:\n%s", st)
	}
	if got := s.expiries.Value(); got != 1 {
		t.Fatalf("lease expiries = %d, want 1", got)
	}
	if err := r.LeaseMicroTask(LeaseArgs{WorkerID: 0}, &l); err != nil {
		t.Fatal(err)
	}
	if l.Empty || l.JobIDs[0] != 1 || l.Renewed {
		t.Fatalf("returning worker's lease = %+v, want job 1, not renewed", l)
	}
}

// TestReportRefreshesLease: progress reports are liveness signals — a worker
// that reports within the TTL keeps its lease even without re-leasing.
func TestReportRefreshesLease(t *testing.T) {
	s, r, now := leaseScheduler(t)
	var l Lease
	if err := r.LeaseMicroTask(LeaseArgs{WorkerID: 0}, &l); err != nil {
		t.Fatal(err)
	}
	*now = now.Add(900 * time.Millisecond)
	var ack Ack
	if err := r.ReportThroughput(ThroughputReport{WorkerID: 0, JobID: 1, StepsPerSecond: 5}, &ack); err != nil {
		t.Fatal(err)
	}
	// 1.8s after grant but only 0.9s after the report: still held.
	*now = now.Add(900 * time.Millisecond)
	if err := r.LeaseMicroTask(LeaseArgs{WorkerID: 1}, &l); err != nil {
		t.Fatal(err)
	}
	if st := s.StatusText(); !strings.Contains(st, "worker 0  type v100  server s0  leased job 1\n") {
		t.Fatalf("lease expired despite liveness report:\n%s", st)
	}
	if got := s.expiries.Value(); got != 0 {
		t.Fatalf("lease expiries = %d, want 0", got)
	}
}

// fixedSource leases a fixed plan: worker ID -> job IDs.
type fixedSource map[int][]int

func (f fixedSource) NextLease(workerID int, _, _ string) []int { return f[workerID] }

// TestLeaseSourceDrivesLeases: leases come from the LeaseSource alone — a
// worker the plan leaves out idles even with runnable jobs — with renewal
// detection intact.
func TestLeaseSourceDrivesLeases(t *testing.T) {
	s := NewScheduler(1, fixedSource{0: {8}})
	s.Submit(JobSpec{JobID: 5, TotalSteps: 1e9})
	s.Submit(JobSpec{JobID: 8, TotalSteps: 1e9})
	r := &schedulerRPC{s: s}

	for w := 0; w < 2; w++ {
		var reply RegisterReply
		if err := r.RegisterWorker(RegisterArgs{Version: ProtocolVersion, AcceleratorType: "v100"}, &reply); err != nil {
			t.Fatal(err)
		}
	}
	var l Lease
	if err := r.LeaseMicroTask(LeaseArgs{WorkerID: 0}, &l); err != nil {
		t.Fatal(err)
	}
	if l.Empty || l.JobIDs[0] != 8 {
		t.Fatalf("lease = %+v, want job 8 from the source", l)
	}
	if err := r.LeaseMicroTask(LeaseArgs{WorkerID: 0}, &l); err != nil {
		t.Fatal(err)
	}
	if !l.Renewed {
		t.Fatalf("same job from source not marked renewed: %+v", l)
	}
	if err := r.LeaseMicroTask(LeaseArgs{WorkerID: 1}, &l); err != nil {
		t.Fatal(err)
	}
	if !l.Empty {
		t.Fatalf("unplanned worker leased %+v", l)
	}
}

// TestSchedulerCloseStopsServing: Close tears down live connections (joining
// their goroutines), so a held client errors instead of hanging.
func TestSchedulerCloseStopsServing(t *testing.T) {
	s := NewScheduler(1, fixedSource{})
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	c, err := Dial(addr, RegisterArgs{AcceleratorType: "v100"})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := c.Lease(); err == nil {
		t.Fatal("lease succeeded over a closed scheduler")
	}
}

// TestPolicySpecRoundTrip: every catalog policy must survive
// SpecForPolicy -> PolicyFromSpec -> SpecForPolicy unchanged, or a
// coordinator cannot faithfully configure remote daemons.
func TestPolicySpecRoundTrip(t *testing.T) {
	names := []string{
		"max_min_fairness", "max_min_fairness_priorities", "fifo",
		"shortest_job_first", "min_makespan", "finish_time_fairness",
		"min_cost", "max_total_throughput",
	}
	for _, name := range names {
		spec := PolicySpec{Name: name}
		p, err := PolicyFromSpec(spec)
		if err != nil {
			t.Fatalf("PolicyFromSpec(%q): %v", name, err)
		}
		back, ok := SpecForPolicy(p)
		if !ok || back != spec {
			t.Fatalf("spec round trip %q -> %T -> %+v (ok=%v)", name, p, back, ok)
		}
	}
	if _, err := PolicyFromSpec(PolicySpec{Name: "nope"}); CodeOf(err) != CodeUnknownPolicy {
		t.Fatalf("unknown policy: code %v, want CodeUnknownPolicy", CodeOf(err))
	}
}
