package rpc

// The coordinator's decision tests — routing, rebalance by warm migration,
// empty-shard edges, partition-respecting allocation, merged-round budgets —
// against a Service over in-memory shard servers. They were written against
// the in-process cluster.Coordinator and moved here when the Service became
// the only coordinator.

import (
	"math"
	"testing"

	"gavel/internal/cluster"
	"gavel/internal/policy"
	"gavel/internal/scheduler"
)

// shardingSpec builds a uniform 3-type cluster with n devices per type.
func shardingSpec(n int) cluster.Spec {
	return cluster.Spec{Types: []cluster.AcceleratorType{
		{Name: "v100", Count: n, PricePerHour: cluster.PriceV100, PerServer: 4},
		{Name: "p100", Count: n, PricePerHour: cluster.PriceP100, PerServer: 4},
		{Name: "k80", Count: n, PricePerHour: cluster.PriceK80, PerServer: 4},
	}}
}

// shardingTput gives job id a strict best type (id mod 3) so the refined
// max-min optimum is unique: with capacity slack every job runs full-time on
// its best type, which is what makes the K-shard and one-shard solves land on
// the same allocation.
func shardingTput(id int) []float64 {
	t := make([]float64, 3)
	for j := range t {
		t[j] = 1 + 0.1*float64(j)
	}
	t[id%3] = 4 + 0.01*float64(id%7)
	return t
}

func shardingInfo(id int) policy.JobInfo {
	return policy.JobInfo{
		Weight: 1 + 0.01*float64(id), Priority: 1,
		RemainingSteps: 1e6, TotalSteps: 2e6, Elapsed: 3600, ArrivalSeq: id,
	}
}

func newShardingService(t *testing.T, k, devicesPerType int, route cluster.RoutePolicy) *Service {
	t.Helper()
	clients := make([]ShardClient, k)
	for i := range clients {
		_, clients[i] = NewLocalShard()
	}
	svc, err := NewService(ServiceConfig{
		Cluster: shardingSpec(devicesPerType),
		Policy:  PolicySpec{Name: "max_min_fairness"},
		Route:   route,
	}, clients)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func mustAdmit(t *testing.T, svc *Service, id, scaleFactor int) int {
	t.Helper()
	k, err := svc.Admit(id, scaleFactor, shardingTput(id))
	if err != nil {
		t.Fatalf("admit %d: %v", id, err)
	}
	return k
}

func mustStats(t *testing.T, svc *Service) []ShardStatus {
	t.Helper()
	st, err := svc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func coldSolves(st ShardStatus) int {
	return st.Solve.Solves - st.Solve.WarmHits - st.Solve.RemapHits
}

// jobAllocations merges the shards' mirrored allocations into per-job
// per-type time fractions: each job's row sums X over every unit containing
// it in its shard's allocation.
func jobAllocations(svc *Service) map[int][]float64 {
	out := map[int][]float64{}
	for k := 0; k < svc.NumShards(); k++ {
		alloc, ids := svc.Alloc(k)
		if alloc == nil {
			continue
		}
		for u := range alloc.Units {
			for _, local := range alloc.Units[u].Jobs {
				row := out[ids[local]]
				if row == nil {
					row = make([]float64, len(alloc.X[u]))
					out[ids[local]] = row
				}
				for j, x := range alloc.X[u] {
					row[j] += x
				}
			}
		}
	}
	return out
}

// TestShardedMatchesMonolithicAllocation is the partition-respecting
// equivalence acceptance: on a scenario whose optimum is unique and
// separable (strict per-job best types, capacity slack in every shard, no
// cross-shard pairs — pairs cannot cross shards by construction), K=1 and
// K=4 must produce the same per-job allocation within 1e-6.
func TestShardedMatchesMonolithicAllocation(t *testing.T) {
	const jobs = 32
	allocs := map[int]map[int][]float64{}
	for _, k := range []int{1, 4} {
		svc := newShardingService(t, k, 2*jobs, cluster.RouteHash)
		for id := 0; id < jobs; id++ {
			mustAdmit(t, svc, id, 1)
		}
		if err := svc.AllocateAll(1, shardingInfo, false); err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		allocs[k] = jobAllocations(svc)
	}
	for id := 0; id < jobs; id++ {
		a1, a4 := allocs[1][id], allocs[4][id]
		if a1 == nil || a4 == nil {
			t.Fatalf("job %d missing from an allocation (K=1: %v, K=4: %v)", id, a1, a4)
		}
		for j := range a1 {
			if d := math.Abs(a1[j] - a4[j]); d > 1e-6 {
				t.Errorf("job %d type %d: K=1 gives %v, K=4 gives %v (diff %v)", id, j, a1[j], a4[j], d)
			}
		}
	}
}

// TestRebalanceMigrationsAreRemappedNotCold is the migration-accounting
// acceptance: jobs moved by a rebalance must warm-start both sides' next
// solves via the cross-shape remap — RemappedSolves grows, cold solves do
// not — including a destination shard that has never solved (it imports the
// source's seeds).
func TestRebalanceMigrationsAreRemappedNotCold(t *testing.T) {
	svc := newShardingService(t, 2, 16, cluster.RouteHash)
	// Even IDs only: hash routing piles everything onto shard 0, leaving
	// shard 1 empty (and its context seedless).
	for i := 0; i < 8; i++ {
		mustAdmit(t, svc, 2*i, 1)
	}
	if err := svc.AllocateAll(1, shardingInfo, false); err != nil {
		t.Fatal(err)
	}
	if got := len(svc.ShardJobs(0)); got != 8 {
		t.Fatalf("expected all 8 jobs on shard 0, got %d", got)
	}
	before := mustStats(t, svc)

	migs, err := svc.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if len(migs) == 0 {
		t.Fatal("rebalance moved nothing despite an 8-vs-0 imbalance")
	}
	if svc.Migrations() != len(migs) || svc.Rebalances() != 1 {
		t.Fatalf("migration accounting: %d/%d", svc.Migrations(), svc.Rebalances())
	}
	n0, n1 := len(svc.ShardJobs(0)), len(svc.ShardJobs(1))
	if got := n0 - n1; got < -1 || got > 1 {
		t.Fatalf("rebalance left shards at %d vs %d jobs", n0, n1)
	}
	placed := svc.JobShards()
	for _, m := range migs {
		if placed[m.Job] != m.To {
			t.Fatalf("job %d recorded at shard %d, placement map says %d", m.Job, m.To, placed[m.Job])
		}
	}

	if err := svc.AllocateAll(2, shardingInfo, false); err != nil {
		t.Fatal(err)
	}
	after := mustStats(t, svc)
	for k := range after {
		if d := coldSolves(after[k]) - coldSolves(before[k]); d != 0 {
			t.Errorf("shard %d: migration forced %d cold solves", k, d)
		}
		if after[k].Solve.RemapHits <= before[k].Solve.RemapHits {
			t.Errorf("shard %d: post-migration solve did not take the remapped path (%d -> %d)",
				k, before[k].Solve.RemapHits, after[k].Solve.RemapHits)
		}
	}
	if after[1].MigratedIn == 0 || after[0].MigratedOut == 0 {
		t.Errorf("per-shard migration counters not updated: %+v", after)
	}
}

// TestEmptyShardEdges exercises both empty-shard directions: a shard drained
// of every job must allocate (empty) without panicking and keep serving
// rounds, and a seedless shard receiving its first jobs must fall back to a
// cold solve without panicking.
func TestEmptyShardEdges(t *testing.T) {
	svc := newShardingService(t, 2, 8, cluster.RouteHash)
	for i := 0; i < 4; i++ {
		mustAdmit(t, svc, 2*i+1, 1) // odd IDs: all on shard 1
	}
	if err := svc.AllocateAll(1, shardingInfo, false); err != nil {
		t.Fatal(err)
	}
	if len(svc.ShardJobs(0)) != 0 {
		t.Fatal("shard 0 should be empty")
	}
	// Empty shard: allocation exists, assigns nothing, no panic.
	if alloc, _ := svc.Alloc(0); alloc == nil || len(alloc.Units) != 0 {
		t.Fatalf("empty shard's allocation is %+v, want empty and non-nil", alloc)
	}
	perShard, err := svc.AssignRound(1, 360, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(perShard[0]) != 0 || len(perShard[1]) == 0 {
		t.Fatalf("assignments per shard: %d on the empty one, %d on the populated one", len(perShard[0]), len(perShard[1]))
	}

	// Drain shard 1 completely: remove all jobs, reallocate, assign.
	for _, id := range svc.ShardJobs(1) {
		if err := svc.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.AllocateAll(2, shardingInfo, false); err != nil {
		t.Fatalf("drained-shard allocation: %v", err)
	}
	perShard, err = svc.AssignRound(2, 360, nil)
	if err != nil || len(perShard[0])+len(perShard[1]) != 0 {
		t.Fatalf("drained coordinator assigned %v (err %v)", perShard, err)
	}

	// Jobs into never-solved contexts: cold solve, no panic.
	fresh := newShardingService(t, 2, 8, cluster.RouteHash)
	mustAdmit(t, fresh, 0, 1)
	mustAdmit(t, fresh, 1, 1)
	if err := fresh.AllocateAll(1, shardingInfo, false); err != nil {
		t.Fatal(err)
	}
	for k, st := range mustStats(t, fresh) {
		if st.Solve.RemapHits != 0 || st.Solve.WarmHits != 0 {
			t.Errorf("shard %d: first-ever solve claimed a warm start: %+v", k, st.Solve)
		}
	}
}

// TestRoutingPolicies checks both routers' determinism and balance.
func TestRoutingPolicies(t *testing.T) {
	hash := newShardingService(t, 3, 9, cluster.RouteHash)
	for id := 0; id < 12; id++ {
		if k := mustAdmit(t, hash, id, 1); k != id%3 {
			t.Fatalf("hash route sent job %d to shard %d", id, k)
		}
	}

	ll := newShardingService(t, 3, 9, cluster.RouteLeastLoaded)
	// Scale factors force the balancer's hand: each arrival lands on the
	// currently lightest shard.
	mustAdmit(t, ll, 100, 4) // shard 0, load 4
	if k := mustAdmit(t, ll, 101, 1); k != 1 {
		t.Fatalf("least-loaded sent job 101 to shard %d", k)
	}
	if k := mustAdmit(t, ll, 102, 1); k != 2 {
		t.Fatalf("least-loaded sent job 102 to shard %d", k)
	}
	if k := mustAdmit(t, ll, 103, 1); k != 1 {
		t.Fatalf("least-loaded tie should break to shard 1, got %d", k)
	}
}

// TestMergeRoundBudget checks the merged-round invariant: a well-formed
// round passes, a round forged past one shard's slice is rejected, and so is
// a round with the wrong number of assignment sets.
func TestMergeRoundBudget(t *testing.T) {
	svc := newShardingService(t, 2, 4, cluster.RouteHash)
	for id := 0; id < 8; id++ {
		mustAdmit(t, svc, id, 1)
	}
	if err := svc.AllocateAll(1, shardingInfo, false); err != nil {
		t.Fatal(err)
	}
	perShard, err := svc.AssignRound(1, 360, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(perShard[0]) == 0 || len(perShard[1]) == 0 {
		t.Fatal("no assignments in a populated round")
	}
	for k, assigns := range perShard {
		alloc, _ := svc.Alloc(k)
		for _, a := range assigns {
			if a.Type < 0 || a.Type >= 3 || a.UnitIdx < 0 || a.UnitIdx >= len(alloc.Units) {
				t.Fatalf("shard %d: malformed assignment %+v", k, a)
			}
		}
	}
	if err := svc.ValidateRound(perShard); err != nil {
		t.Fatalf("well-formed round rejected: %v", err)
	}

	// Shard 0 owns 2 devices of each type; a forged round running three of
	// its units on type 0 breaks its slice (and nothing else).
	forged := [][]scheduler.Assignment{nil, perShard[1]}
	for u := 0; u < 3; u++ {
		forged[0] = append(forged[0], scheduler.Assignment{UnitIdx: u, Type: 0})
	}
	if err := svc.ValidateRound(forged); CodeOf(err) != CodeInternal {
		t.Fatalf("over-budget round accepted (err %v)", err)
	}
	if err := svc.ValidateRound(perShard[:1]); err == nil {
		t.Fatal("a round with one assignment set for two shards was accepted")
	}
}

// TestObserveJobRewritesTheShardRow covers the driver-side row push: the
// shard's next allocation runs on the pushed isolated row, the mirror keeps
// the admission row (what a recovery re-installs), a departed job is a no-op,
// and a malformed row is refused at the edge like Admit's.
func TestObserveJobRewritesTheShardRow(t *testing.T) {
	svc := newShardingService(t, 1, 1, cluster.RouteHash)
	for id := 0; id < 2; id++ {
		mustAdmit(t, svc, id, 1)
	}
	// Job 0 is admitted fastest on type 0 and takes that type's one device.
	if err := svc.AllocateAll(1, shardingInfo, false); err != nil {
		t.Fatal(err)
	}
	if x := jobAllocations(svc)[0]; x[0] < 0.9 {
		t.Fatalf("job 0 gets %v of its best type before the push", x)
	}
	// Now it is measured useless there and fast on type 2.
	if err := svc.ObserveJob(0, []float64{0.01, 0.01, 9}); err != nil {
		t.Fatal(err)
	}
	if err := svc.AllocateAll(2, shardingInfo, true); err != nil {
		t.Fatal(err)
	}
	if x := jobAllocations(svc)[0]; x[2] < 0.9 {
		t.Fatalf("job 0 gets %v after its row moved to type 2", x)
	}
	if got := svc.shards[0].tput[0]; got[0] != shardingTput(0)[0] {
		t.Fatalf("mirror row %v is no longer the admission row", got)
	}
	if err := svc.ObserveJob(99, []float64{1, 1, 1}); err != nil {
		t.Fatalf("push for a job nobody holds: %v", err)
	}
	if err := svc.ObserveJob(0, []float64{1, math.NaN(), 1}); err == nil {
		t.Fatal("a NaN row was accepted")
	}
}

// TestShardAllocateMatchesInfosByID: a shard pairs the coordinator's per-job
// infos with its residents by job ID, not by position — the lookup resumes
// where the last one hit because the two orders normally agree, but a
// shuffled Infos must give the same allocation, never a neighbour's
// weight.
func TestShardAllocateMatchesInfosByID(t *testing.T) {
	allocate := func(order []int) AllocateReply {
		srv, c := NewLocalShard()
		err := c.Configure(ShardConfig{
			WorkerInts: []int{1, 1, 1}, PerServer: []int{4, 4, 4}, Prices: []float64{3, 2, 1},
			Policy: PolicySpec{Name: "max_min_fairness"},
		})
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < 4; id++ {
			if err := c.Install(InstallArgs{JobID: id, ScaleFactor: 1, Tput: []float64{1, 1, 1}}); err != nil {
				t.Fatal(err)
			}
		}
		args := AllocateArgs{Round: 1}
		for _, id := range order {
			ji := shardingInfo(id)
			ji.ID, ji.Weight = id, float64(1+id) // the only thing telling the jobs apart
			args.Infos = append(args.Infos, ji)
		}
		var rep AllocateReply
		if err := srv.Allocate(args, &rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	want := allocate([]int{0, 1, 2, 3})
	for _, order := range [][]int{{3, 2, 1, 0}, {1, 3, 0, 2}} {
		got := allocate(order)
		for u := range want.X {
			for j := range want.X[u] {
				if got.X[u][j] != want.X[u][j] {
					t.Fatalf("Infos in order %v: X[%d] = %v, in resident order %v", order, u, got.X[u], want.X[u])
				}
			}
		}
	}
	// Heavier jobs get more: the weights did arrive, each at its own job.
	if want.X[3][0]+want.X[3][1]+want.X[3][2] <= want.X[0][0]+want.X[0][1]+want.X[0][2] {
		t.Fatalf("weights did not reach the policy: X = %v", want.X)
	}
}
