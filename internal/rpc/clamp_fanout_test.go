package rpc

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// pushRecorder records the job ID of every ObserveJob it is handed and lets
// a test fail the n-th push of a round (0-based) instead of delivering it.
// Each shard's chain runs on one goroutine and the test reads only after
// EndRound's join, so it needs no lock.
type pushRecorder struct {
	ShardClient
	got  []int
	fail func(n int) error
}

func (c *pushRecorder) ObserveJob(a ObserveJobArgs) error {
	n := len(c.got)
	c.got = append(c.got, a.JobID)
	if c.fail != nil {
		if err := c.fail(n); err != nil {
			return err
		}
	}
	return c.ShardClient.ObserveJob(a)
}

// TestClampPushesFanOutPerShard holds EndRound's concurrent clamp pushes to
// the calls the one-at-a-time loop made: over three journaled shards with a
// quarantined tenant's nine jobs, every shard receives its own jobs' pushes in
// clamp order; a transient failure degrades the sealed round without ending
// that shard's chain; a dead shard's chain stops at the failed push, journals
// exactly one recDown, and the other shards' pushes all land.
func TestClampPushesFanOutPerShard(t *testing.T) {
	const first, jobs = 300, 9 // first divisible by 3: job first+i hashes to shard i%3
	path := filepath.Join(t.TempDir(), "j.wal")
	recs := make([]*pushRecorder, 3)
	clients := make([]ShardClient, len(recs))
	for k := range recs {
		_, c := NewLocalShard()
		recs[k] = &pushRecorder{ShardClient: c}
		clients[k] = recs[k]
	}
	cfg := testServiceConfig(path)
	cfg.Admission = &AdmissionConfig{MaxQueuePerTenant: jobs, JobIDBase: first}
	svc, err := NewService(cfg, clients)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < jobs; i++ {
		mustSubmit(t, svc, SubmitArgs{Tenant: "liar", Key: fmt.Sprint(i), TotalSteps: 1000, ScaleFactor: 1, Tput: []float64{3, 3}})
	}
	if _, err := svc.AdmitPending(0); err != nil {
		t.Fatal(err)
	}
	// The sequential loop's calls to shard k: the tenant's jobs in clamp (ID)
	// order, those resident on k.
	want := make([][]int, len(recs))
	for id, k := range svc.JobShards() {
		want[k] = append(want[k], id)
	}
	for k := range want {
		if len(want[k]) != jobs/len(recs) {
			t.Fatalf("shard %d holds %v: routing premise broken", k, want[k])
		}
		sort.Ints(want[k])
	}
	seal := func(check func()) {
		t.Helper()
		for _, r := range recs {
			r.got = r.got[:0]
		}
		for id := first; id < first+jobs; id++ {
			if err := svc.ObserveMeasured(id, 0, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := svc.EndRound(svc.Round() + 1); err != nil {
			t.Fatalf("round %d: %v", svc.Round()+1, err)
		}
		check()
	}
	pushed := func(k int, want []int) {
		t.Helper()
		if got := recs[k].got; !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d, shard %d: pushes %v, want %v", svc.Round(), k, got, want)
		}
	}

	// Rounds 1-2 review divergence; round 3 quarantines and pushes the first
	// clamps: three chains, nine pushes in all.
	seal(func() {})
	seal(func() {})
	seal(func() {
		total := 0
		for k := range recs {
			pushed(k, want[k])
			total += len(recs[k].got)
		}
		if total != jobs {
			t.Fatalf("round 3 pushed %d clamps, want %d", total, jobs)
		}
	})

	// Round 4: shard 1's first push times out. Its chain goes on.
	recs[1].fail = func(n int) error {
		if n == 0 {
			return Errorf(CodeUnavailable, "injected drop")
		}
		return nil
	}
	seal(func() {
		for k := range recs {
			pushed(k, want[k])
		}
		if svc.DegradedRounds() != 1 {
			t.Fatalf("DegradedRounds = %d after a transient push failure, want 1", svc.DegradedRounds())
		}
	})
	recs[1].fail = nil

	// Round 5: shard 2 dies on its second push. Its chain stops there.
	recs[2].fail = func(n int) error {
		if n >= 1 {
			return Errorf(CodeShardDown, "injected death")
		}
		return nil
	}
	seal(func() {
		pushed(0, want[0])
		pushed(1, want[1])
		pushed(2, want[2][:2])
		if !svc.Down(2) || svc.Down(0) || svc.Down(1) {
			t.Fatalf("down = %v %v %v, want only shard 2", svc.Down(0), svc.Down(1), svc.Down(2))
		}
	})
	// Round 6: the dead shard gets nothing.
	seal(func() {
		pushed(0, want[0])
		pushed(1, want[1])
		pushed(2, []int{})
	})
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	var degraded []int64
	downs := map[int64][]int{} // round being built -> shards journaled down
	building := int64(1)
	j, _, err := openJournal(path, func(_ int, rec *journalRecord) error {
		switch rec.Kind {
		case recDown:
			downs[building] = append(downs[building], rec.Shard)
		case recRound:
			if rec.Degraded {
				degraded = append(degraded, rec.Round)
			}
			building = rec.Round + 1
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	j.close()
	if !reflect.DeepEqual(degraded, []int64{4}) {
		t.Fatalf("degraded sealed rounds %v, want [4]", degraded)
	}
	if !reflect.DeepEqual(downs, map[int64][]int{5: {2}}) {
		t.Fatalf("recDown records by round %v, want one for shard 2 in round 5", downs)
	}
}
