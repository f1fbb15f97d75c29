package simulator

import (
	"testing"

	"gavel/internal/core"
	"gavel/internal/rpc"
	"gavel/internal/scheduler"
)

// serviceTestConfig is shardedTestConfig over caller-supplied shard clients
// instead of NumShards in-memory shards.
func serviceTestConfig(jobs int, clients []rpc.ShardClient) Config {
	cfg := shardedTestConfig(0, jobs)
	cfg.ShardClients = clients
	return cfg
}

// TestServiceSuppliedLocalShardsMatchNumShards is the two-doors-one-room
// acceptance: caller-supplied in-memory shard clients (policy built from its
// catalog name, as a daemon would) must be byte-identical to NumShards
// in-memory shards (policy instance handed over) at the same shard count —
// same allocations, same costs, same solve buckets, same per-shard stats.
func TestServiceSuppliedLocalShardsMatchNumShards(t *testing.T) {
	ref, err := Run(shardedTestConfig(2, 24))
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, ref)

	_, c0 := rpc.NewLocalShard()
	_, c1 := rpc.NewLocalShard()
	got, err := Run(serviceTestConfig(24, []rpc.ShardClient{c0, c1}))
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(t, got) != want {
		t.Fatal("supplied local shard clients differ from NumShards in-memory shards")
	}
	if got.Recoveries != 0 {
		t.Fatalf("no shard died, but Recoveries = %d", got.Recoveries)
	}
}

// startShardDaemon runs a ShardServer on a loopback socket and dials it,
// returning the server (so tests can kill it) and the connected client.
func startShardDaemon(t *testing.T) (*rpc.ShardServer, rpc.ShardClient) {
	t.Helper()
	srv := rpc.NewShardServer()
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := rpc.DialShard(addr)
	if err != nil {
		t.Fatalf("DialShard: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c
}

// TestServiceTCPTransportMatchesLocal runs the same equivalence over real
// loopback sockets against the in-memory transport: every message encoded
// by the control plane's codec, floats bit-exact, so the wire adds nothing
// and removes nothing.
func TestServiceTCPTransportMatchesLocal(t *testing.T) {
	ref, err := Run(shardedTestConfig(2, 16))
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, ref)

	_, c0 := startShardDaemon(t)
	_, c1 := startShardDaemon(t)
	got, err := Run(serviceTestConfig(16, []rpc.ShardClient{c0, c1}))
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(t, got) != want {
		t.Fatal("TCP transport differs from the in-memory transport")
	}
}

// TestServiceShardCrashRecovers kills one shard daemon mid-run and asserts
// the coordinator recovers warm: the dead shard's jobs re-route onto the
// survivor with the last snapshot's seeds, every job still finishes, and the
// recovery does not introduce cold solves — the survivor repairs its basis
// for the enlarged job set via remap.
func TestServiceShardCrashRecovers(t *testing.T) {
	cfg := serviceTestConfig(24, nil)
	srvA, cA := startShardDaemon(t)
	_, cB := startShardDaemon(t)
	cfg.ShardClients = []rpc.ShardClient{cA, cB}
	cfg.SnapshotEveryRounds = 1

	killed := false
	cfg.OnRound = func(now float64, _ *core.Allocation, _ []int, _ []scheduler.Assignment) {
		if !killed && now >= 5*360 {
			killed = true
			srvA.Close()
		}
	}

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !killed {
		t.Fatal("kill hook never fired; run too short to exercise recovery")
	}
	if res.Recoveries == 0 {
		t.Fatal("shard daemon died but no recovery was recorded")
	}
	if res.Unfinished != 0 {
		t.Fatalf("%d jobs stranded after shard crash", res.Unfinished)
	}
	if res.RemappedSolves == 0 {
		t.Fatal("recovery produced no remapped solves; recovered jobs solved cold or not at all")
	}
	// Max-min fairness solves two labeled LPs, so each shard's first
	// allocation costs two cold solves. Recovery must not add to that floor:
	// the survivor's enlarged problems repair via remap, and the dead shard's
	// snapshot accounting is frozen at its own floor.
	for _, st := range res.ShardStats {
		if limit := 2 + st.LPSolves/10; st.ColdSolves > limit {
			t.Fatalf("shard %d: %d cold solves (limit %d) — recovery was not warm",
				st.Shard, st.ColdSolves, limit)
		}
	}
}
