package cluster

import (
	"fmt"
	"testing"

	"gavel/internal/policy"
)

// The coordinator-level behaviour (routing, rebalance, merge budgets,
// K-shard vs one-shard allocations) is tested where the coordinator lives:
// internal/rpc/service_sharding_test.go.

func TestSplitWorkerCountsPartition(t *testing.T) {
	counts := []int{10, 7, 3}
	for _, k := range []int{1, 2, 3, 4, 5} {
		split := SplitWorkerCounts(counts, k)
		for j := range counts {
			sum := 0
			for _, row := range split {
				sum += row[j]
				if row[j] < 0 {
					t.Fatalf("k=%d: negative slice", k)
				}
			}
			if sum != counts[j] {
				t.Fatalf("k=%d type %d: slices sum to %d, want %d", k, j, sum, counts[j])
			}
		}
		// Slices differ by at most one device per type.
		for j := range counts {
			lo, hi := split[0][j], split[0][j]
			for _, row := range split {
				if row[j] < lo {
					lo = row[j]
				}
				if row[j] > hi {
					hi = row[j]
				}
			}
			if hi-lo > 1 {
				t.Fatalf("k=%d type %d: uneven split %v", k, j, split)
			}
		}
	}
}

// testTput gives job id a strict best type (id mod 3).
func testTput(id int) []float64 {
	t := make([]float64, 3)
	for j := range t {
		t[j] = 1 + 0.1*float64(j)
	}
	t[id%3] = 4 + 0.01*float64(id%7)
	return t
}

// TestShardJobOrderSurvivesChurn guards the determinism backbone: the
// shard-local admission order is stable under interleaved removals, so unit
// construction (and therefore LP column order) is reproducible, and an
// allocation covers exactly the resident set in that order.
func TestShardJobOrderSurvivesChurn(t *testing.T) {
	s := NewShard(0, []int{8, 8, 8}, []int{4, 4, 4}, []float64{PriceV100, PriceP100, PriceK80}, policy.NewSolveContext())
	for id := 0; id < 6; id++ {
		s.Add(id, 1, testTput(id))
	}
	s.Remove(2)
	s.Remove(4)
	s.Remove(7) // unknown: no-op
	s.Add(9, 1, testTput(9))
	want := []int{0, 1, 3, 5, 9}
	if got := s.Jobs(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("job order %v, want %v", got, want)
	}
	for _, id := range want {
		if !s.Has(id) {
			t.Fatalf("job %d not resident", id)
		}
	}
	info := func(id int) policy.JobInfo {
		return policy.JobInfo{Weight: 1, Priority: 1, RemainingSteps: 1e6, TotalSteps: 2e6, Elapsed: 3600, ArrivalSeq: id}
	}
	if err := s.Allocate(&policy.MaxMinFairness{}, 0, 0, info); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(s.AllocIDs) != fmt.Sprint(want) {
		t.Fatalf("allocated jobs %v, want %v", s.AllocIDs, want)
	}
	if len(s.Alloc.Units) != len(want) {
		t.Fatalf("%d units for %d single jobs", len(s.Alloc.Units), len(want))
	}
	assigns, err := s.AssignRound(360, func(id int) bool { return id == 3 })
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range assigns {
		if s.AllocIDs[s.Alloc.Units[a.UnitIdx].Jobs[0]] == 3 {
			t.Fatal("a skipped job was assigned")
		}
	}
}
