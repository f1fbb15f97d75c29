package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"gavel/internal/core"
	"gavel/internal/policy"
)

// failingPolicy runs the wrapped policy — so the reset writes everything it
// would have returned — and then, when armed, reports failure.
type failingPolicy struct {
	policy.Policy
	fail bool
}

var errInjected = errors.New("injected reset failure")

func (p *failingPolicy) Allocate(in *policy.Input, ctx *policy.SolveContext) (*core.Allocation, error) {
	alloc, err := p.Policy.Allocate(in, ctx)
	if p.fail {
		return nil, errInjected
	}
	return alloc, err
}

// pairShard is a shard with space-sharing pairs (every third job with the
// next) and multi-worker jobs (every fifth).
func pairShard(jobs int) *Shard {
	s := NewShard(0, []int{12, 12, 12}, []int{8, 8, 4}, []float64{PriceV100, PriceP100, PriceK80}, policy.NewSolveContext())
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
	return s
}

func lifetimeInfo(id int) policy.JobInfo {
	return policy.JobInfo{Weight: 1, Priority: 1, RemainingSteps: 1e6, TotalSteps: 2e6, Elapsed: 3600, ArrivalSeq: id}
}

// disturb changes what the next reset computes: every resident's isolated
// row and every pair row is observed anew (in place, in the cache), one job
// leaves with its pairs and one arrives with a pair (refilling an entry the
// departure freed).
func disturb(s *Shard, r int) {
	for _, id := range s.Jobs() {
		s.ObserveJob(id, testTput(id+r))
		s.Observe(id, id+1, r%3, 0.5+0.01*float64(r), 0.4)
	}
	s.Remove(s.Jobs()[1])
	s.Add(1000+r, 1, testTput(r))
	ta, tb := testTput(r), testTput(r+1)
	for j := range ta {
		ta[j] *= 0.9
		tb[j] *= 0.9
	}
	s.SetPairIfAbsent(1000+r, s.Jobs()[2], ta, tb)
}

// allocPrint renders everything a holder of an allocation reads: the job
// IDs, every unit's members, rows and key, and X. %v prints floats in their
// shortest round-tripping form, so equal prints mean equal bits.
func allocPrint(alloc *core.Allocation, ids []int) string {
	return fmt.Sprintf("ids=%v units=%v x=%v", ids, alloc.Units, alloc.X)
}

// TestAllocationOutlivesNextReset: an allocation held across one more reset
// keeps its units, rows, X and job IDs bit for bit, although the cache rows
// it was built from are overwritten in place and the reset writes the same
// kind of result.
func TestAllocationOutlivesNextReset(t *testing.T) {
	s := pairShard(24)
	for r := 0; r < 4; r++ {
		if err := s.Allocate(&policy.MaxMinFairness{}, 1.0, 2, lifetimeInfo); err != nil {
			t.Fatal(err)
		}
		held, heldIDs := s.Alloc, s.AllocIDs
		want := allocPrint(held, heldIDs)
		disturb(s, r)
		if err := s.Allocate(&policy.MaxMinFairness{}, 1.0, 2, lifetimeInfo); err != nil {
			t.Fatal(err)
		}
		if got := allocPrint(held, heldIDs); got != want {
			t.Fatalf("reset %d: the held allocation changed under the next reset:\n%s\nwas\n%s", r, got, want)
		}
		if allocPrint(s.Alloc, s.AllocIDs) == want {
			t.Fatalf("reset %d: the disturbance changed nothing", r)
		}
	}
}

// TestFailedResetLeavesLiveAllocation: a reset that fails between two good
// ones — after writing everything a good one writes — leaves the live
// allocation in place and untouched, and the next good reset writes into the
// other generation, not into it.
func TestFailedResetLeavesLiveAllocation(t *testing.T) {
	s := pairShard(24)
	pol := &failingPolicy{Policy: &policy.MaxMinFairness{}}
	if err := s.Allocate(pol, 1.0, 2, lifetimeInfo); err != nil {
		t.Fatal(err)
	}
	live, liveIDs := s.Alloc, s.AllocIDs
	want := allocPrint(live, liveIDs)

	disturb(s, 1)
	pol.fail = true
	if err := s.Allocate(pol, 1.0, 2, lifetimeInfo); !errors.Is(err, errInjected) {
		t.Fatalf("armed reset returned %v", err)
	}
	if s.Alloc != live || allocPrint(s.Alloc, s.AllocIDs) != want {
		t.Fatal("a failed reset touched the live allocation")
	}

	disturb(s, 2)
	pol.fail = false
	if err := s.Allocate(pol, 1.0, 2, lifetimeInfo); err != nil {
		t.Fatal(err)
	}
	if s.Alloc == live {
		t.Fatal("the good reset did not replace the allocation")
	}
	if got := allocPrint(live, liveIDs); got != want {
		t.Fatalf("the good reset after a failed one wrote into the allocation it replaced:\n%s\nwas\n%s", got, want)
	}
}

// TestShardsAllocateConcurrently runs resets and rounds on several shards at
// once, as the coordinator's fan-out does (go test -race checks that shards
// share nothing mutable, the solve scratch pool included), and holds every
// shard to what the same stream produces alone.
func TestShardsAllocateConcurrently(t *testing.T) {
	const shards, resets = 4, 4
	run := func(s *Shard) (string, error) {
		var out string
		for r := 0; r < resets; r++ {
			if r > 0 {
				disturb(s, r)
			}
			if err := s.Allocate(&policy.MaxMinFairness{}, 1.0, 2, lifetimeInfo); err != nil {
				return "", err
			}
			assigns, err := s.AssignRound(360, nil)
			if err != nil {
				return "", err
			}
			out += allocPrint(s.Alloc, s.AllocIDs) + fmt.Sprint(assigns)
		}
		return out, nil
	}
	want := make([]string, shards)
	for k := range want {
		var err error
		if want[k], err = run(pairShard(16 + 4*k)); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]string, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for k := 0; k < shards; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			got[k], errs[k] = run(pairShard(16 + 4*k))
		}(k)
	}
	wg.Wait()
	for k := range got {
		if errs[k] != nil {
			t.Fatal(errs[k])
		}
		if got[k] != want[k] {
			t.Errorf("shard %d: concurrent resets differ from the same stream run alone", k)
		}
	}
}
