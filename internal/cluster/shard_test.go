package cluster

import (
	"runtime"
	"testing"

	"gavel/internal/policy"
)

// roundAllocCeiling is what one steady-state Shard.AssignRound may allocate:
// the []Assignment it returns, plus one object of slack. Everything else a
// round touches — priorities, candidates, the busy set, server slots, unit
// member IDs, the masked allocation, received-time entries — is scratch the
// shard and its mechanism reuse.
const roundAllocCeiling = 2

// TestRoundPathAllocs holds the round path to roundAllocCeiling objects per
// round, with and without a skip mask, on a shard with space-sharing pairs
// and multi-worker jobs. It brackets each round with runtime.MemStats under
// GOMAXPROCS(1), the way the reset path's TestResetPathAllocs does, after
// warm-up rounds have grown the scratch.
func TestRoundPathAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := NewShard(0, []int{12, 12, 12}, []int{8, 8, 4}, []float64{PriceV100, PriceP100, PriceK80}, policy.NewSolveContext())
	const jobs = 32
	for id := 0; id < jobs; id++ {
		sf := 1
		if id%5 == 0 {
			sf = 2 + id%3
		}
		s.Add(100+id, sf, testTput(id))
	}
	for id := 0; id+1 < jobs; id += 3 {
		ta, tb := testTput(id), testTput(id+1)
		for j := range ta {
			ta[j] *= 0.8
			tb[j] *= 0.7
		}
		s.SetPairIfAbsent(100+id, 100+id+1, ta, tb)
	}
	info := func(id int) policy.JobInfo {
		return policy.JobInfo{Weight: 1, Priority: 1, RemainingSteps: 1e6, TotalSteps: 2e6, Elapsed: 3600, ArrivalSeq: id}
	}
	if err := s.Allocate(&policy.MaxMinFairness{}, 1.0, 2, info); err != nil {
		t.Fatal(err)
	}
	if len(s.Alloc.Units) <= jobs {
		t.Fatalf("%d units for %d jobs: the pairs did not reach the allocation", len(s.Alloc.Units), jobs)
	}
	skipOdd := func(id int) bool { return id%2 == 1 }
	for _, tc := range []struct {
		name string
		skip func(int) bool
	}{{"unmasked", nil}, {"masked", skipOdd}} {
		t.Run(tc.name, func(t *testing.T) {
			const warmup, rounds = 8, 40
			var before, after runtime.MemStats
			var mallocs uint64
			assigned := 0
			for r := 0; r < warmup+rounds; r++ {
				if r%16 == 0 {
					s.Mech.ResetReceived()
				}
				runtime.ReadMemStats(&before)
				assigns, err := s.AssignRound(360, tc.skip)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				if r >= warmup {
					mallocs += after.Mallocs - before.Mallocs
					assigned += len(assigns)
				}
			}
			if assigned == 0 {
				t.Fatal("no round assigned anything")
			}
			perRound := float64(mallocs) / rounds
			t.Logf("%.2f objects per round (ceiling %d)", perRound, roundAllocCeiling)
			if perRound > roundAllocCeiling {
				t.Errorf("%.2f objects per round, ceiling %d", perRound, roundAllocCeiling)
			}
		})
	}
}
