// Package e2e runs the multi-process acceptance for the cluster service:
// real gavel-shard daemons (this test binary re-exec'd in shard-server mode)
// on loopback sockets, driven by the coordinator over the versioned control
// plane. The two acceptance properties: a multi-process run is
// byte-identical to a run over in-memory shards on the same trace, and
// killing a shard daemon mid-run recovers its jobs warm on the survivors.
package e2e

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"gavel/internal/cluster"
	"gavel/internal/core"
	"gavel/internal/policy"
	"gavel/internal/rpc"
	"gavel/internal/scheduler"
	"gavel/internal/simulator"
	"gavel/internal/workload"
)

const shardHelperEnv = "GAVEL_SHARD_HELPER"

// TestHelperShardDaemon is not a test: re-exec'd with GAVEL_SHARD_HELPER=1
// it becomes a shard daemon process, serving the control plane on an
// ephemeral loopback port (announced on stdout) until killed.
func TestHelperShardDaemon(t *testing.T) {
	if os.Getenv(shardHelperEnv) != "1" {
		t.Skip("helper process, not a test")
	}
	srv := rpc.NewShardServer()
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		fmt.Printf("SHARD_ERR=%v\n", err)
		os.Exit(1)
	}
	fmt.Printf("SHARD_ADDR=%s\n", addr)
	os.Stdout.Sync()
	select {} // serve until the parent kills us
}

// shardDaemon is one spawned shard daemon process.
type shardDaemon struct {
	cmd  *exec.Cmd
	addr string
}

// startShardDaemon re-execs the test binary as a shard daemon and waits for
// it to announce its control-plane address.
func startShardDaemon(t *testing.T) *shardDaemon {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestHelperShardDaemon")
	cmd.Env = append(os.Environ(), shardHelperEnv+"=1")
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawn shard daemon: %v", err)
	}
	d := &shardDaemon{cmd: cmd}
	t.Cleanup(func() { d.kill() })

	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line := sc.Text()
		if a, ok := strings.CutPrefix(line, "SHARD_ADDR="); ok {
			d.addr = a
			return d
		}
		if msg, ok := strings.CutPrefix(line, "SHARD_ERR="); ok {
			t.Fatalf("shard daemon failed to start: %s", msg)
		}
	}
	t.Fatalf("shard daemon exited without announcing an address")
	return nil
}

func (d *shardDaemon) kill() {
	if d.cmd.Process != nil {
		d.cmd.Process.Kill()
		d.cmd.Wait()
	}
}

// e2eConfig mirrors the simulator's own sharded determinism-test config.
func e2eConfig(numShards, jobs int) simulator.Config {
	return simulator.Config{
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

// fingerprint serializes everything deterministic about a Result (PolicyTime
// is wall-clock and run-local, so it is zeroed).
func fingerprint(t *testing.T, r *simulator.Result) string {
	t.Helper()
	c := *r
	c.PolicyTime = 0
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMultiProcessMatchesLocal is the deployment acceptance: two real shard
// daemon processes behind the versioned wire protocol produce a
// byte-identical Result to two in-memory shards on the same trace.
func TestMultiProcessMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	ref, err := simulator.Run(e2eConfig(2, 24))
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, ref)

	d0, d1 := startShardDaemon(t), startShardDaemon(t)
	c0, err := rpc.DialShard(d0.addr)
	if err != nil {
		t.Fatalf("DialShard: %v", err)
	}
	defer c0.Close()
	c1, err := rpc.DialShard(d1.addr)
	if err != nil {
		t.Fatalf("DialShard: %v", err)
	}
	defer c1.Close()

	cfg := e2eConfig(0, 24)
	cfg.ShardClients = []rpc.ShardClient{c0, c1}
	got, err := simulator.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(t, got) != want {
		t.Fatal("multi-process run differs from the run over in-memory shards")
	}
	if got.Recoveries != 0 {
		t.Fatalf("healthy daemons, but Recoveries = %d", got.Recoveries)
	}
}

// restartDriver runs the round protocol once against a Service over live
// daemon processes that has sealed r rounds: admissions keyed on r (two jobs
// at r = 0..2, one at r = 5), a forced reallocation of any shard three rounds
// past its last one, a snapshot every other round. Returns the
// post-allocation mirror fingerprint.
func restartDriver(t *testing.T, svc *rpc.Service, r int) string {
	t.Helper()
	if svc.Round() != int64(r) {
		t.Fatalf("service has sealed %d rounds, driver expected %d", svc.Round(), r)
	}
	admit := func(id, sf int) error {
		_, err := svc.Admit(id, sf, []float64{1 + float64(id%5)*0.25, 0.5 + float64(id%3)*0.125})
		return err
	}
	_, err := svc.RunRound(&rpc.RoundPlan{
		RoundSeconds:  10,
		ReallocEvery:  3,
		SnapshotEvery: 2,
		Done:          func(int) bool { return false },
		Info: func(id int) policy.JobInfo {
			return policy.JobInfo{Weight: 1, RemainingSteps: 1000 + float64(id), TotalSteps: 2000, ArrivalSeq: id}
		},
		Arrive: func() error {
			switch {
			case r < 3:
				if err := admit(r*2, 1); err != nil {
					return err
				}
				return admit(r*2+1, 2)
			case r == 5:
				return admit(11, 1)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("round %d: %v", r+1, err)
	}
	var s strings.Builder
	for k := 0; k < svc.NumShards(); k++ {
		alloc, ids := svc.Alloc(k)
		if alloc == nil {
			fmt.Fprintf(&s, "shard %d: nil\n", k)
			continue
		}
		fmt.Fprintf(&s, "shard %d: ids=%v units=%v x=%v\n", k, ids, alloc.Units, alloc.X)
	}
	return s.String()
}

func restartServiceConfig(journal string) rpc.ServiceConfig {
	return rpc.ServiceConfig{
		Cluster: cluster.Spec{Types: []cluster.AcceleratorType{
			{Name: "v100", Count: 4, PricePerHour: cluster.PriceV100, PerServer: 4},
			{Name: "k80", Count: 4, PricePerHour: cluster.PriceK80, PerServer: 4},
		}},
		Policy:  rpc.PolicySpec{Name: "max_min_fairness"},
		Journal: journal,
	}
}

// TestCoordinatorRestartReplaysJournal is the multi-process durability
// acceptance: a coordinator process dies mid-run (its Service abandoned, its
// client connections severed) while the shard daemon processes keep running.
// A new coordinator over the same journal must replay to the exact pre-crash
// mirror and drive the remaining rounds byte-identically to an uninterrupted
// run against its own fresh daemons.
func TestCoordinatorRestartReplaysJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	const rounds = 10
	dial := func(d *shardDaemon) rpc.ShardClient {
		c, err := rpc.DialShard(d.addr)
		if err != nil {
			t.Fatalf("DialShard: %v", err)
		}
		return c
	}

	// Reference: one uninterrupted coordinator over its own daemons.
	var want [rounds]string
	{
		c0, c1 := dial(startShardDaemon(t)), dial(startShardDaemon(t))
		svc, err := rpc.NewService(restartServiceConfig(t.TempDir()+"/ref.wal"), []rpc.ShardClient{c0, c1})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rounds; r++ {
			want[r] = restartDriver(t, svc, r)
		}
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Interrupted: same schedule, coordinator dies after sealing round 5.
	journal := t.TempDir() + "/crash.wal"
	d0, d1 := startShardDaemon(t), startShardDaemon(t)
	c0, c1 := dial(d0), dial(d1)
	svc, err := rpc.NewService(restartServiceConfig(journal), []rpc.ShardClient{c0, c1})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r <= 4; r++ {
		if got := restartDriver(t, svc, r); got != want[r] {
			t.Fatalf("pre-crash round %d diverged:\n got %s\nwant %s", r, got, want[r])
		}
	}
	// The coordinator process dies: connections drop, no clean Close. Every
	// sealed round is already fsynced in the journal.
	c0.Close()
	c1.Close()
	svc = nil

	// A new coordinator process: re-dial the surviving daemons, replay.
	resumed, err := rpc.NewService(restartServiceConfig(journal), []rpc.ShardClient{dial(d0), dial(d1)})
	if err != nil {
		t.Fatalf("restart over journal: %v", err)
	}
	defer resumed.Close()
	if !resumed.Resumed() || resumed.Round() != 5 {
		t.Fatalf("resumed=%v round=%d, want resumed at round 5", resumed.Resumed(), resumed.Round())
	}
	for r := 5; r < rounds; r++ {
		if got := restartDriver(t, resumed, r); got != want[r] {
			t.Fatalf("post-restart round %d diverged from uninterrupted run:\n got %s\nwant %s", r, got, want[r])
		}
	}
}

// TestShardDaemonKillRecoversWarm kills one shard daemon process mid-run.
// The coordinator must detect the loss, re-route the dead daemon's jobs onto
// the survivor with the last snapshot's seeds, and finish every job — with
// the recovered solves landing remapped (warm), not cold.
func TestShardDaemonKillRecoversWarm(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	d0, d1 := startShardDaemon(t), startShardDaemon(t)
	c0, err := rpc.DialShard(d0.addr)
	if err != nil {
		t.Fatalf("DialShard: %v", err)
	}
	defer c0.Close()
	c1, err := rpc.DialShard(d1.addr)
	if err != nil {
		t.Fatalf("DialShard: %v", err)
	}
	defer c1.Close()

	cfg := e2eConfig(0, 24)
	cfg.ShardClients = []rpc.ShardClient{c0, c1}
	cfg.SnapshotEveryRounds = 1
	killed := false
	cfg.OnRound = func(now float64, _ *core.Allocation, _ []int, _ []scheduler.Assignment) {
		if !killed && now >= 5*360 {
			killed = true
			d0.kill()
		}
	}

	res, err := simulator.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !killed {
		t.Fatal("kill hook never fired")
	}
	if res.Recoveries == 0 {
		t.Fatal("daemon process killed but no recovery recorded")
	}
	if res.Unfinished != 0 {
		t.Fatalf("%d jobs stranded after daemon kill", res.Unfinished)
	}
	if res.RemappedSolves == 0 {
		t.Fatal("recovery produced no remapped solves")
	}
	for _, st := range res.ShardStats {
		if limit := 2 + st.LPSolves/10; st.ColdSolves > limit {
			t.Fatalf("shard %d: %d cold solves (limit %d) — recovery was not warm",
				st.Shard, st.ColdSolves, limit)
		}
	}
}
