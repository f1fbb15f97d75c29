package simulator

// Telemetry-plane acceptance tests: observability must be a pure read-only
// overlay. (1) Turning the plane on cannot change a seeded chaos run's
// results by a single byte. (2) Under a stub clock, the deterministic metric
// dump is a pure function of the seeded workload — two same-seed runs agree
// exactly. (3) Trace IDs minted by the coordinator survive the chaos
// transport into the shard daemons, and duplicated deliveries absorbed by
// the reply cache do not double-count server-side spans.

import (
	"crypto/sha256"
	"fmt"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gavel/internal/chaos"
	"gavel/internal/cluster"
	"gavel/internal/obs"
	"gavel/internal/policy"
	"gavel/internal/rpc"
)

// obsChaosConfig is the seeded fault mix shared by the on/off and
// snapshot-reproducibility tests — drops (exercising retries), duplicates
// (exercising the reply cache), and delays.
func obsChaosConfig() chaos.Config {
	return chaos.Config{
		Seed: 11, Drop: 0.04, Dup: 0.04, Delay: 0.05, MaxDelay: 100 * time.Microsecond,
	}
}

// obsServiceRun executes one sharded chaos run with an optional
// telemetry plane attached and an optional journal, and returns the result
// fingerprint.
func obsServiceRun(t *testing.T, plane *obs.Plane, journal string) string {
	t.Helper()
	clients := make([]rpc.ShardClient, 2)
	for k := range clients {
		_, clients[k] = rpc.NewLocalShard()
	}
	cfg := serviceTestConfig(16, clients)
	cfg.Chaos = obsChaosConfig()
	cfg.RPC = rpc.CallPolicy{Retries: 5, Backoff: time.Millisecond}
	cfg.Obs = plane
	cfg.Journal = journal
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("chaos run failed: %v", err)
	}
	return fingerprint(t, res)
}

// stubPlane returns a plane whose clock is pinned, so every duration
// observation is exactly zero and the deterministic dump cannot depend on
// wall-clock scheduling.
func stubPlane() *obs.Plane {
	p := obs.NewPlane()
	t0 := time.Unix(1700000000, 0)
	p.SetClock(func() time.Time { return t0 })
	return p
}

// TestObsOffOnByteIdentical is the observer-effect acceptance: the same
// seeded chaos workload lands byte-identical results with the telemetry
// plane off and on. Metrics and spans may observe every decision; they may
// influence none.
func TestObsOffOnByteIdentical(t *testing.T) {
	off := obsServiceRun(t, nil, "")
	on := obsServiceRun(t, stubPlane(), "")
	if off != on {
		t.Fatal("attaching the telemetry plane changed a seeded chaos run's results")
	}
}

// TestObsSnapshotReproducible is the metrics-determinism acceptance: two
// same-seed chaos runs, each with a fresh stub-clock plane, produce equal
// deterministic dumps — counter for counter, bucket for bucket. So do two
// coordinators resuming from the runs' journals, whose dumps and /statusz
// carry what the replay cost.
func TestObsSnapshotReproducible(t *testing.T) {
	p1, p2 := stubPlane(), stubPlane()
	j1, j2 := t.TempDir()+"/1.wal", t.TempDir()+"/2.wal"
	obsServiceRun(t, p1, j1)
	obsServiceRun(t, p2, j2)
	d1 := p1.Registry().DumpDeterministic()
	d2 := p2.Registry().DumpDeterministic()
	if d1 == "" {
		t.Fatal("deterministic dump is empty after an instrumented run")
	}
	for _, series := range []string{
		"gavel_rounds_total",
		"gavel_rpc_calls_total",
		"gavel_chaos_faults_total",
	} {
		if !strings.Contains(d1, series) {
			t.Fatalf("deterministic dump is missing %s:\n%s", series, d1)
		}
	}
	if d1 != d2 {
		t.Fatalf("same seed produced different metric snapshots:\n--- run 1\n%s--- run 2\n%s", d1, d2)
	}
	// The journals themselves are byte-identical: nothing on the wire may
	// depend on map iteration order.
	digest := func(path string) [sha256.Size]byte {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return sha256.Sum256(b)
	}
	if h1, h2 := digest(j1), digest(j2); h1 != h2 {
		t.Fatalf("same seed wrote different journals: sha256 %x vs %x", h1, h2)
	}

	resume := func(journal string) (dump, statusz string) {
		clients := make([]rpc.ShardClient, 2)
		for k := range clients {
			_, clients[k] = rpc.NewLocalShard()
		}
		plane := stubPlane()
		svc, err := rpc.NewService(rpc.ServiceConfig{
			Cluster: cluster.Simulated108(),
			Policy:  rpc.PolicySpec{Name: "max_min_fairness"},
			Journal: journal,
			Obs:     plane,
		}, clients)
		if err != nil {
			t.Fatalf("resume over %s: %v", journal, err)
		}
		defer svc.Close()
		return plane.Registry().DumpDeterministic(), svc.StatusText()
	}
	r1, s1 := resume(j1)
	r2, s2 := resume(j2)
	if r1 != r2 || s1 != s2 {
		t.Fatalf("same journal contents resumed to different snapshots:\n--- 1\n%s%s--- 2\n%s%s", r1, s1, r2, s2)
	}
	// Every record the run counted, plus the config header (appended before
	// the journal's instruments exist).
	records := p1.Registry().Counter("gavel_journal_appends_total", "").Value() + 1
	if want := fmt.Sprintf("gavel_journal_replayed_records_total %d\n", records); records == 1 || !strings.Contains(r1, want) {
		t.Fatalf("resumed dump does not replay the run's %d records:\n%s", records, r1)
	}
	if !strings.Contains(r1, "gavel_journal_replay_seconds 0\n") {
		t.Fatalf("resumed dump is missing the stub-clock replay time:\n%s", r1)
	}
	if want := fmt.Sprintf("resumed from journal: %d records, ", records); !strings.Contains(s1, want) || !strings.Contains(s1, " 1 epochs, 0.0 ms\n") {
		t.Fatalf("statusz does not report the resume (%q...):\n%s", want, s1)
	}
}

// TestObsTracePropagationUnderDup drives a journaled Service over chaos
// transports that duplicate every idempotent call. Coordinator-minted round
// trace IDs must arrive in the shard daemons' spans, and the duplicated
// deliveries — absorbed by the idempotent surface and the per-round reply
// cache — must not create extra server-side spans.
func TestObsTracePropagationUnderDup(t *testing.T) {
	const shards, rounds, jobs = 2, 3, 4

	coordPlane := stubPlane()
	shardPlanes := make([]*obs.Plane, shards)
	clients := make([]rpc.ShardClient, shards)
	for k := range clients {
		srv, inner := rpc.NewLocalShard()
		shardPlanes[k] = stubPlane()
		srv.SetObs(shardPlanes[k])
		pol := rpc.CallPolicy{Retries: 3, Backoff: time.Microsecond, Obs: coordPlane}
		clients[k], _ = chaos.Stack(inner, chaos.Config{Seed: 7, Dup: 1.0}, k, pol)
	}

	svc, err := rpc.NewService(rpc.ServiceConfig{
		Cluster: cluster.Spec{Types: []cluster.AcceleratorType{
			{Name: "v100", Count: 4, PricePerHour: cluster.PriceV100, PerServer: 4},
			{Name: "k80", Count: 4, PricePerHour: cluster.PriceK80, PerServer: 4},
		}},
		Policy:  rpc.PolicySpec{Name: "max_min_fairness"},
		Journal: t.TempDir() + "/obs.wal",
		Obs:     coordPlane,
	}, clients)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	info := func(id int) policy.JobInfo {
		return policy.JobInfo{Weight: 1, RemainingSteps: 1000, TotalSteps: 2000, ArrivalSeq: id}
	}
	for r := 1; r <= rounds; r++ {
		if r == 1 {
			for id := 0; id < jobs; id++ {
				if _, err := svc.Admit(id, 1, []float64{1 + float64(id)*0.25, 0.5}); err != nil {
					t.Fatalf("admit %d: %v", id, err)
				}
			}
		}
		// force=true re-solves every shard every round, so the expected span
		// counts below are exact rather than dependent on dirty tracking.
		if err := svc.AllocateAll(int64(r), info, true); err != nil {
			t.Fatalf("round %d: AllocateAll: %v", r, err)
		}
		if _, err := svc.AssignRound(int64(r), 10, nil); err != nil {
			t.Fatalf("round %d: AssignRound: %v", r, err)
		}
		if err := svc.EndRound(int64(r)); err != nil {
			t.Fatalf("round %d: EndRound: %v", r, err)
		}
	}

	// The duplicator must actually have fired, or the test proves nothing.
	dups := coordPlane.Registry().
		CounterVec("gavel_chaos_faults_total", "", "kind").With("dup").Value()
	if dups == 0 {
		t.Fatal("chaos transport injected no duplicates at Dup=1.0")
	}

	coordCounts := coordPlane.Tracer().CountSpans()
	if got := coordCounts["coord.allocate"]; got != rounds*shards {
		t.Fatalf("coord.allocate spans = %d, want %d", got, rounds*shards)
	}
	if got := coordCounts["coord.assign"]; got != rounds*shards {
		t.Fatalf("coord.assign spans = %d, want %d", got, rounds*shards)
	}
	if got := coordCounts["journal.commit"]; got != rounds {
		t.Fatalf("journal.commit spans = %d, want %d", got, rounds)
	}

	installs, cached := 0, int64(0)
	traceRe := regexp.MustCompile(`^round-\d{6}$`)
	for k, p := range shardPlanes {
		counts := p.Tracer().CountSpans()
		installs += counts["shard.install"]
		// Every AllocateAll and AssignRound was delivered twice; the reply
		// cache must hold server-side spans to one per round.
		if got := counts["shard.allocate"]; got != rounds {
			t.Fatalf("shard %d: shard.allocate spans = %d, want %d (dup double-counted?)", k, got, rounds)
		}
		if got := counts["shard.assign"]; got != rounds {
			t.Fatalf("shard %d: shard.assign spans = %d, want %d (dup double-counted?)", k, got, rounds)
		}
		for _, m := range []string{"Allocate", "AssignRound", "Install"} {
			cached += p.Registry().
				CounterVec("gavel_shard_cached_replies_total", "", "method").With(m).Value()
		}
		for _, sp := range p.Tracer().Spans() {
			if !traceRe.MatchString(sp.Trace) {
				t.Fatalf("shard %d: span %q carries trace %q, want round-NNNNNN (propagation broken)", k, sp.Name, sp.Trace)
			}
		}
	}
	if installs != jobs {
		t.Fatalf("shard.install spans across shards = %d, want %d (one per unique job)", installs, jobs)
	}
	if cached == 0 {
		t.Fatal("no duplicated deliveries were answered from the reply cache")
	}
}

// TestObsRoundSpansShareOneTrace is the one-round-one-trace acceptance, on
// journaled sharded runs with a telemetry plane: every round-NNNNNN trace ID
// closes with exactly one journal.commit, and every coord.* / shard.* span
// carrying that ID — installs, removals, migrations, the allocate and assign
// fan-outs, on the coordinator and inside the shards — started after the
// previous round's commit ended and before its own round's commit ended. A
// trace ID never mixes two iterations of the round loop.
func TestObsRoundSpansShareOneTrace(t *testing.T) {
	// A ticking stub clock gives every span a distinct, strictly ordered
	// timestamp without depending on the wall clock's resolution.
	tickingPlane := func() *obs.Plane {
		p := &obs.Plane{Reg: obs.NewRegistry(), Tr: obs.NewTracer(1 << 16)}
		t0 := time.Unix(1700000000, 0)
		var ticks atomic.Int64
		p.SetClock(func() time.Time { return t0.Add(time.Duration(ticks.Add(1)) * time.Microsecond) })
		return p
	}
	check := func(t *testing.T, cfg Config) {
		cfg.Journal = t.TempDir() + "/trace.wal"
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		spans := cfg.Obs.Tracer().Spans()
		if int64(len(spans)) != cfg.Obs.Tracer().Total() {
			t.Fatalf("trace ring evicted spans (%d of %d kept)", len(spans), cfg.Obs.Tracer().Total())
		}
		commitEnd := map[string]int64{} // trace -> end of its journal.commit
		for _, sp := range spans {
			if sp.Name != "journal.commit" {
				continue
			}
			if _, dup := commitEnd[sp.Trace]; dup {
				t.Fatalf("%s has more than one journal.commit", sp.Trace)
			}
			commitEnd[sp.Trace] = sp.StartNs + sp.DurNs
		}
		counts := map[string]int{}
		for _, sp := range spans {
			if !strings.HasPrefix(sp.Name, "coord.") && !strings.HasPrefix(sp.Name, "shard.") {
				continue
			}
			var round int64
			if _, err := fmt.Sscanf(sp.Trace, "round-%d", &round); err != nil {
				t.Fatalf("span %s carries trace %q", sp.Name, sp.Trace)
			}
			end, ok := commitEnd[sp.Trace]
			if !ok {
				t.Fatalf("%s: span %s in a round that never committed", sp.Trace, sp.Name)
			}
			prev := commitEnd[obs.RoundTrace(round-1)] // 0 before round 1
			if sp.StartNs < prev || sp.StartNs > end {
				t.Fatalf("%s: span %s started at %d, outside its round's window (%d, %d]", sp.Trace, sp.Name, sp.StartNs, prev, end)
			}
			counts[sp.Name]++
		}
		for _, name := range []string{"coord.allocate", "coord.assign", "coord.migrate", "shard.install", "shard.extract", "shard.allocate", "shard.assign"} {
			if counts[name] == 0 {
				t.Fatalf("run recorded no %s span; the test covers less than it claims (%v)", name, counts)
			}
		}
	}
	t.Run("NumShards", func(t *testing.T) {
		cfg := shardedTestConfig(2, 16)
		cfg.Obs = tickingPlane()
		check(t, cfg)
	})
	t.Run("ShardClients", func(t *testing.T) {
		plane := tickingPlane()
		clients := make([]rpc.ShardClient, 2)
		for k := range clients {
			srv, c := rpc.NewLocalShard()
			srv.SetObs(plane)
			clients[k] = c
		}
		cfg := serviceTestConfig(16, clients)
		cfg.Obs = plane
		check(t, cfg)
	})
}
