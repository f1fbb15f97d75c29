package simulator

import (
	"strings"
	"testing"
	"time"

	"gavel/internal/chaos"
	"gavel/internal/rpc"
)

// chaosRun executes one sharded run with every shard client under the
// client fault-plane stack (chaos.Stack: a seeded chaos transport below the
// production retry policy), returning the result fingerprint and the
// concatenated per-shard fault schedule. Stacking is done here (not via
// cfg.Chaos, which calls the same function) so the test keeps handles to the
// *chaos.Transport values and can read their schedules back.
func chaosRun(t *testing.T, ccfg chaos.Config) (string, string) {
	t.Helper()
	pol := rpc.CallPolicy{Retries: 5, Backoff: time.Millisecond}
	var transports []*chaos.Transport
	clients := make([]rpc.ShardClient, 2)
	for k := range clients {
		_, inner := rpc.NewLocalShard()
		var tr *chaos.Transport
		clients[k], tr = chaos.Stack(inner, ccfg, k, pol)
		transports = append(transports, tr)
	}
	res, err := Run(serviceTestConfig(16, clients))
	if err != nil {
		t.Fatalf("chaos run failed: %v", err)
	}
	if res.Unfinished != 0 {
		t.Fatalf("%d jobs stranded under chaos (drops are transient and retried)", res.Unfinished)
	}
	var sched strings.Builder
	for k, tr := range transports {
		sched.WriteString("shard ")
		sched.WriteString(string(rune('0' + k)))
		sched.WriteString("\n")
		sched.WriteString(tr.ScheduleString())
	}
	return fingerprint(t, res), sched.String()
}

// TestChaosScheduleReproducible is the fault-plane acceptance: two runs under
// the same chaos seed inject the identical fault schedule (same calls, same
// methods, same faults) and land byte-identical results — drops masked by
// retry, duplicates absorbed by the daemons' idempotent surface, delays
// invisible to the simulated clock.
func TestChaosScheduleReproducible(t *testing.T) {
	ccfg := chaos.Config{
		Seed: 11, Drop: 0.04, Dup: 0.04, Delay: 0.05, MaxDelay: 100 * time.Microsecond,
	}
	fp1, sched1 := chaosRun(t, ccfg)
	fp2, sched2 := chaosRun(t, ccfg)
	if sched1 == "" || !strings.Contains(sched1, "drop") {
		t.Fatalf("chaos injected no drops over a full run:\n%s", sched1)
	}
	if sched1 != sched2 {
		t.Fatalf("same seed produced different fault schedules:\n--- run 1\n%s--- run 2\n%s", sched1, sched2)
	}
	if fp1 != fp2 {
		t.Fatal("same fault schedule produced different results")
	}
}
