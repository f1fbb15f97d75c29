package rpc

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gavel/internal/cluster"
)

// mirrorDump renders the whole coordinator state a replay must rebuild: every
// shardMirror field but the fan-out scratch (infos, skip, pushes and the push
// outcome), RunRound's per-round fresh flag and the wall-clock PolicyTime;
// the service counters; the placement map; and the submission plane, with
// Refused zeroed because a refusal is never journaled.
func mirrorDump(svc *Service) string {
	var b strings.Builder
	fmt.Fprintf(&b, "round=%d migrations=%d rebalances=%d recoveries=%d degradedRounds=%d roundDegraded=%v\n",
		svc.round, svc.migrations, svc.rebalances, svc.recoveries, svc.degradedRounds, svc.roundDegraded)
	fmt.Fprintf(&b, "shardOf=%v\n", svc.shardOf)
	for _, m := range svc.shards {
		fmt.Fprintf(&b, "shard %d: down=%v jobs=%v jobPos=%v sf=%v tput=%v load=%d dirty=%v sinceAlloc=%d staleRounds=%d staleAllocs=%d\n",
			m.index, m.down, m.jobs, m.jobPos, m.sf, m.tput, m.load, m.dirty, m.sinceAlloc, m.staleRounds, m.staleAllocs)
		if m.alloc != nil {
			fmt.Fprintf(&b, "  alloc ids=%v units=%v x=%v\n", m.allocIDs, m.alloc.Units, m.alloc.X)
		}
		for _, sd := range m.seeds {
			basis, err := sd.Basis.MarshalBinary()
			fmt.Fprintf(&b, "  seed %s ids=%v basis=%x err=%v\n", sd.Label, sd.IDs, basis, err)
		}
		st := m.status
		st.PolicyTime = 0
		fmt.Fprintf(&b, "  status=%+v\n", st)
	}
	tenants := svc.TenantStats()
	for i := range tenants {
		tenants[i].Refused = 0
	}
	fmt.Fprintf(&b, "submissions=%+v\ntenants=%+v\n", svc.Submissions(), tenants)
	return b.String()
}

// TestReplayMatchesLiveEveryRound is the differential form of the replay
// contract: after every round of a faulted run, a fresh coordinator replayed
// from a copy of the journal must hold exactly the live coordinator's state —
// not only its allocations (allocFingerprint), but every counter the next
// round reads. Three shards sit behind flakyClient and the submission plane
// carries a lying tenant (quarantine clamps) and a flooding one (the shed
// ladder); the schedule brings a transient Allocate degrade, a shard death
// inside AllocateAll, a shard death inside AssignRound, rebalances,
// recoveries, completions and a withdrawal.
func TestReplayMatchesLiveEveryRound(t *testing.T) {
	const rounds, first = 16, 300 // first divisible by 3: job first+i hashes to shard i%3
	dir := t.TempDir()
	path := filepath.Join(dir, "live.wal")
	srvs := make([]*ShardServer, 3)
	flaky := make([]*flakyClient, 3)
	clients := make([]ShardClient, 3)
	for k := range srvs {
		var c ShardClient
		srvs[k], c = NewLocalShard()
		flaky[k] = newFlakyClient(c)
		clients[k] = flaky[k]
	}
	config := func(journal string) ServiceConfig {
		cfg := testServiceConfig(journal)
		cfg.Admission = &AdmissionConfig{
			MaxQueuePerTenant: 6, RatePerRound: 1, Burst: 1,
			ShedQueueDepth: 2, ShedAfterRounds: 2, QuarantineAfterRounds: 2,
			JobIDBase: first,
		}
		return cfg
	}
	svc, err := NewService(config(path), clients)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// dies is a fault hook under which a daemon fails method with
	// CodeShardDown in round at, and every call after that.
	dies := func(method string, at int64) func(string) error {
		dead := false
		return func(m string) error {
			if dead = dead || (m == method && svc.Round()+1 == at); dead {
				return Errorf(CodeShardDown, "injected death")
			}
			return nil
		}
	}
	death := dies("AssignRound", 10)
	flaky[1].fail = func(m string) error {
		if m == "Allocate" && svc.Round()+1 == 4 {
			return Errorf(CodeTimeout, "injected timeout")
		}
		return death(m)
	}
	flaky[2].fail = dies("Allocate", 7)

	rate := map[int]float64{} // job -> the rate its workers measure on type 0
	seen := map[int]int{}     // job -> rounds it has run
	done := map[int]bool{}    // jobs that finished
	submit := func(tenant, key string, sf, slo int, tput []float64, measured float64) error {
		rep, err := svc.Submit(SubmitArgs{Tenant: tenant, Key: key, Name: key, TotalSteps: 900, ScaleFactor: sf, SLOClass: slo, Tput: tput})
		if CodeOf(err) == CodeOverload {
			return nil // refused: live-only, never journaled
		}
		rate[rep.JobID] = measured
		return err
	}
	var samples []MeasuredSample
	plan := &RoundPlan{
		RoundSeconds:   10,
		RebalanceEvery: 3,
		ReallocEvery:   3,
		SnapshotEvery:  2,
		Done:           func(id int) bool { return done[id] },
		Info:           testJobInfo,
		Arrive: func() error {
			r := int(svc.Round()) + 1
			if r <= 10 {
				tp := testTput(r)
				if err := submit("honest", fmt.Sprint("h", r), 1+r%2, 1, tp, tp[0]); err != nil {
					return err
				}
			}
			if r <= 3 {
				if err := submit("liar", fmt.Sprint("l", r), 1, 1, []float64{3, 3}, 1); err != nil {
					return err
				}
			}
			if r == 2 {
				for i := 0; i < 8; i++ {
					if err := submit("flood", fmt.Sprint("f", i), 1, 0, testTput(i), testTput(i)[0]); err != nil {
						return err
					}
				}
			}
			switch r {
			case 4: // each faulted shard reallocates in its fault round
				return svc.MarkDirty(1)
			case 7:
				return svc.MarkDirty(2)
			case 6:
				_, err := svc.Withdraw(WithdrawArgs{Tenant: "honest", Key: "h2"})
				return err
			}
			return nil
		},
		Progress: func(sh ShardRound) (bool, []PairObservation, []MeasuredSample) {
			finished := false
			samples = samples[:0]
			for _, id := range sh.IDs {
				if done[id] {
					continue
				}
				if seen[id]++; seen[id] == 5 && id%4 == 0 {
					done[id], finished = true, true
				}
				samples = append(samples, MeasuredSample{JobID: id, Type: 0, Rate: rate[id]})
			}
			return finished, nil, samples
		},
	}

	for r := 1; r <= rounds; r++ {
		if _, err := svc.RunRound(plan); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		log, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		copyPath := filepath.Join(dir, fmt.Sprintf("replay%d.wal", r))
		if err := os.WriteFile(copyPath, log, 0o644); err != nil {
			t.Fatal(err)
		}
		replayClients := make([]ShardClient, len(srvs))
		for k, srv := range srvs {
			replayClients[k] = NewLocalShardClient(srv)
		}
		replayed, err := NewService(config(copyPath), replayClients)
		if err != nil {
			t.Fatalf("round %d: replay: %v", r, err)
		}
		got, want := mirrorDump(replayed), mirrorDump(svc)
		if err := replayed.Close(); err != nil {
			t.Fatal(err)
		}
		if got != want {
			g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
			i := 0
			for i < len(g)-1 && i < len(w)-1 && g[i] == w[i] {
				i++
			}
			t.Fatalf("round %d: replayed state differs from live at line %d:\nreplayed: %s\nlive:     %s", r, i, g[i], w[i])
		}
	}

	// The schedule's premises: every fault and every plane ran.
	actions := map[string]int{}
	for _, d := range svc.Decisions() {
		actions[d.Action]++
	}
	withdrawn := false
	for _, si := range svc.Submissions() {
		withdrawn = withdrawn || si.State == SubmissionWithdrawn
	}
	if svc.StaleAllocs(1) == 0 || svc.Rebalances() == 0 || svc.Migrations() == 0 || svc.Recoveries() == 0 {
		t.Errorf("stale allocs %d, rebalances %d, migrations %d, recoveries %d: want each > 0",
			svc.StaleAllocs(1), svc.Rebalances(), svc.Migrations(), svc.Recoveries())
	}
	if !svc.Down(1) || !svc.Down(2) || svc.Down(0) {
		t.Errorf("down = %v %v %v, want shards 1 and 2", svc.Down(0), svc.Down(1), svc.Down(2))
	}
	if actions["quarantine"] == 0 || actions["shed"] == 0 || !withdrawn || len(done) == 0 {
		t.Errorf("admission decisions %v, withdrawn %v, %d jobs done: want a quarantine, a shed, a withdrawal and a completion",
			actions, withdrawn, len(done))
	}
}

// TestReplayRefusesAnotherPolicyOrRoute: a journal records one policy's
// allocations under one routing rule, so resuming it under another policy or
// route is refused like a different shard count — naming both sides — and the
// file is left as it was.
func TestReplayRefusesAnotherPolicyOrRoute(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	srv0, c0 := NewLocalShard()
	srv1, c1 := NewLocalShard()
	svc, err := NewService(testServiceConfig(path), []ShardClient{c0, c1})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		driveRound(t, svc, r)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	resume := func(cfg ServiceConfig) (*Service, error) {
		return NewService(cfg, []ShardClient{NewLocalShardClient(srv0), NewLocalShardClient(srv1)})
	}
	for _, tc := range []struct {
		edit func(*ServiceConfig)
		want string
	}{
		{func(c *ServiceConfig) { c.Policy.Name = "min_makespan" }, "min_makespan"},
		{func(c *ServiceConfig) { c.Route = cluster.RouteLeastLoaded }, "least-loaded"},
	} {
		cfg := testServiceConfig(path)
		tc.edit(&cfg)
		_, err := resume(cfg)
		if CodeOf(err) != CodeBadRequest || !strings.Contains(fmt.Sprint(err), "max_min_fairness") || !strings.Contains(fmt.Sprint(err), tc.want) {
			t.Fatalf("resuming under %s: %v, want a bad-request error naming both sides", tc.want, err)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
			t.Fatalf("refusing to resume under %s changed the journal", tc.want)
		}
	}
	resumed, err := resume(testServiceConfig(path))
	if err != nil {
		t.Fatalf("resuming under the journal's own policy and route: %v", err)
	}
	resumed.Close()
}
