package cluster

import (
	"runtime"
	"testing"

	"gavel/internal/policy"
)

// roundAllocCeiling is what one steady-state Shard.AssignRound may allocate,
// in objects per round: nothing (measured 0; 1 before the mechanism kept two
// generations of its result), with room for a stray runtime allocation
// across the measured rounds but not for one per round. Everything a round
// touches — priorities, candidates, the busy set, server slots, unit member
// IDs, the masked allocation, received-time entries, the []Assignment it
// returns — is storage the shard and its mechanism reuse.
const roundAllocCeiling = 0.5

// TestRoundPathAllocs holds the round path to roundAllocCeiling objects per
// round, with and without a skip mask, on a shard with space-sharing pairs
// and multi-worker jobs. It brackets each round with runtime.MemStats under
// GOMAXPROCS(1), the way the reset path's TestResetPathAllocs does, after
// warm-up rounds have grown the scratch.
func TestRoundPathAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const jobs = 32
	s := pairShard(jobs)
	if err := s.Allocate(&policy.MaxMinFairness{}, 1.0, 2, lifetimeInfo); err != nil {
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
			t.Logf("%.2f objects per round (ceiling %.1f)", perRound, roundAllocCeiling)
			if perRound > roundAllocCeiling {
				t.Errorf("%.2f objects per round, ceiling %.1f", perRound, roundAllocCeiling)
			}
		})
	}
}

// shardResetCeiling is what one steady-state shard reset — Shard.Allocate over
// pair units, then the round it starts — may allocate, at about twice the
// measured value (objects and bytes per reset). The units, policy input,
// allocation, solve vectors, bases and assignments all live in storage the
// shard, its context's scratch and its mechanism reuse; what remains is
// per-solve bookkeeping (each lp.Result, the policy's normalizers) and the
// identities minted for the job that arrived since the last reset.
var shardResetCeiling = struct{ objects, bytes float64 }{objects: 36, bytes: 6_000} // measured 18.1 / 2,984 (parent 41.3 / 20,065)

// TestShardResetAllocs holds a steady-state shard reset to shardResetCeiling.
// Between resets a job leaves, one arrives with a pair, and every row is
// observed anew; that disturbance is outside the bracket.
func TestShardResetAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := pairShard(32)
	const warmup, resets = 6, 20
	var before, after runtime.MemStats
	var mallocs, total uint64
	for r := 0; r < warmup+resets; r++ {
		disturb(s, r)
		runtime.ReadMemStats(&before)
		err := s.Allocate(&policy.MaxMinFairness{}, 1.0, 2, lifetimeInfo)
		if err == nil {
			_, err = s.AssignRound(360, nil)
		}
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if r >= warmup {
			mallocs += after.Mallocs - before.Mallocs
			total += after.TotalAlloc - before.TotalAlloc
		}
	}
	objects, bytes := float64(mallocs)/resets, float64(total)/resets
	t.Logf("%.1f objects, %.0f bytes per reset (ceilings %.0f / %.0f)", objects, bytes, shardResetCeiling.objects, shardResetCeiling.bytes)
	if objects > shardResetCeiling.objects || bytes > shardResetCeiling.bytes {
		t.Errorf("%.1f objects, %.0f bytes per reset; ceilings %.0f / %.0f", objects, bytes, shardResetCeiling.objects, shardResetCeiling.bytes)
	}
}
