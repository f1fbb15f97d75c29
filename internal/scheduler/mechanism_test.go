package scheduler

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gavel/internal/core"
)

func singleAlloc(X [][]float64, tputs [][]float64) *core.Allocation {
	units := make([]core.Unit, len(X))
	for m := range X {
		units[m] = core.Single(m, tputs[m])
	}
	return &core.Allocation{Units: units, X: X}
}

func ids(alloc *core.Allocation) func(u int) []int {
	return func(u int) []int { return alloc.Units[u].Jobs }
}

func sfOne(u int) int { return 1 }

func TestKeyForCanonical(t *testing.T) {
	if KeyFor([]int{3, 1}) != KeyFor([]int{1, 3}) {
		t.Fatal("key not order-independent")
	}
	if KeyFor([]int{1}) == KeyFor([]int{1, 3}) {
		t.Fatal("distinct units collide")
	}
}

func TestAssignRespectsCapacity(t *testing.T) {
	alloc := singleAlloc(
		[][]float64{{1, 0}, {1, 0}, {1, 0}},
		[][]float64{{1, 1}, {1, 1}, {1, 1}},
	)
	m := New(2, []int{2, 2})
	got, err := m.Assign(alloc, Workers{Free: []int{2, 1}}, sfOne, ids(alloc))
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	count := map[int]int{}
	for _, a := range got {
		count[a.Type]++
	}
	if count[0] > 2 || count[1] > 1 {
		t.Fatalf("capacity violated: %v", got)
	}
}

func TestAssignNoJobTwicePerRound(t *testing.T) {
	// Job 0 appears as a single and in a pair; only one may run.
	units := []core.Unit{
		core.Single(0, []float64{1}),
		core.Single(1, []float64{1}),
		core.Pair(0, 1, []float64{0.8}, []float64{0.8}),
	}
	alloc := &core.Allocation{Units: units, X: [][]float64{{0.5}, {0.5}, {0.5}}}
	m := New(1, []int{4})
	got, err := m.Assign(alloc, Workers{Free: []int{4}}, sfOne, ids(alloc))
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	seen := map[int]bool{}
	for _, a := range got {
		for _, j := range units[a.UnitIdx].Jobs {
			if seen[j] {
				t.Fatalf("job %d scheduled twice: %v", j, got)
			}
			seen[j] = true
		}
	}
}

func TestAssignSkipsTooLargeJobs(t *testing.T) {
	// Algorithm 1: a 4-worker job that does not fit is skipped, and a
	// smaller job runs instead — no starvation of the whole round.
	alloc := singleAlloc(
		[][]float64{{1}, {1}},
		[][]float64{{1}, {1}},
	)
	m := New(1, []int{8})
	sf := func(u int) int {
		if u == 0 {
			return 4
		}
		return 1
	}
	got, err := m.Assign(alloc, Workers{Free: []int{2}}, sf, ids(alloc))
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if len(got) != 1 || got[0].UnitIdx != 1 {
		t.Fatalf("want only the 1-worker job scheduled, got %v", got)
	}
}

// TestFractionsTrackAllocation is the mechanism's core contract (§5): over
// many rounds the realized time fractions approach the target allocation.
func TestFractionsTrackAllocation(t *testing.T) {
	// Paper's Xexample (Figure 3): 3 jobs, 3 types, one device each.
	X := [][]float64{
		{0.6, 0.4, 0.0},
		{0.2, 0.6, 0.2},
		{0.2, 0.0, 0.8},
	}
	tput := [][]float64{{1, 1, 1}, {1, 1, 1}, {1, 1, 1}}
	alloc := singleAlloc(X, tput)
	m := New(3, []int{1, 1, 1})
	const rounds = 400
	recv := make([][]float64, 3)
	for i := range recv {
		recv[i] = make([]float64, 3)
	}
	for r := 0; r < rounds; r++ {
		got, err := m.Assign(alloc, Workers{Free: []int{1, 1, 1}}, sfOne, ids(alloc))
		if err != nil {
			t.Fatalf("Assign: %v", err)
		}
		m.RecordRound(alloc, got, 1, ids(alloc))
		for _, a := range got {
			recv[a.UnitIdx][a.Type]++
		}
	}
	for u := 0; u < 3; u++ {
		for j := 0; j < 3; j++ {
			frac := recv[u][j] / rounds
			if math.Abs(frac-X[u][j]) > 0.05 {
				t.Errorf("job %d type %d: received %.3f, target %.3f", u, j, frac, X[u][j])
			}
		}
	}
}

func TestPlacementConsolidatesWhenPossible(t *testing.T) {
	alloc := singleAlloc([][]float64{{1}}, [][]float64{{1}})
	m := New(1, []int{8})
	sf := func(u int) int { return 8 }
	got, err := m.Assign(alloc, Workers{Free: []int{16}}, sf, ids(alloc))
	if err != nil || len(got) != 1 {
		t.Fatalf("Assign: %v %v", got, err)
	}
	if !got[0].Consolidated {
		t.Fatal("8-worker job on 8-GPU servers should be consolidated")
	}
}

func TestPlacementSpreadsWhenFragmented(t *testing.T) {
	// 4-GPU servers cannot consolidate an 8-worker job.
	alloc := singleAlloc([][]float64{{1}}, [][]float64{{1}})
	m := New(1, []int{4})
	sf := func(u int) int { return 8 }
	got, err := m.Assign(alloc, Workers{Free: []int{16}}, sf, ids(alloc))
	if err != nil || len(got) != 1 {
		t.Fatalf("Assign: %v %v", got, err)
	}
	if got[0].Consolidated {
		t.Fatal("8-worker job on 4-GPU servers cannot be consolidated")
	}
}

func TestResetReceivedClearsState(t *testing.T) {
	alloc := singleAlloc([][]float64{{1}}, [][]float64{{1}})
	m := New(1, []int{1})
	got, _ := m.Assign(alloc, Workers{Free: []int{1}}, sfOne, ids(alloc))
	m.RecordRound(alloc, got, 60, ids(alloc))
	if m.ReceivedSeconds(KeyFor([]int{0}))[0] != 60 {
		t.Fatal("time not recorded")
	}
	m.ResetReceived()
	if m.ReceivedSeconds(KeyFor([]int{0}))[0] != 0 {
		t.Fatal("reset did not clear")
	}
}

// Property: Assign never schedules a job twice, never exceeds capacity, and
// never schedules a zero-allocation unit.
func TestPropertyAssignInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nJobs := 1 + rng.Intn(8)
		nTypes := 1 + rng.Intn(3)
		X := make([][]float64, nJobs)
		tp := make([][]float64, nJobs)
		sfv := make([]int, nJobs)
		for m := 0; m < nJobs; m++ {
			X[m] = make([]float64, nTypes)
			tp[m] = make([]float64, nTypes)
			for j := range X[m] {
				if rng.Float64() < 0.6 {
					X[m][j] = rng.Float64()
				}
				tp[m][j] = 1
			}
			sfv[m] = 1
			if rng.Float64() < 0.3 {
				sfv[m] = 1 << rng.Intn(3)
			}
		}
		alloc := singleAlloc(X, tp)
		free := make([]int, nTypes)
		for j := range free {
			free[j] = 1 + rng.Intn(8)
		}
		m := New(nTypes, nil)
		for r := 0; r < 5; r++ {
			got, err := m.Assign(alloc, Workers{Free: free}, func(u int) int { return sfv[u] }, ids(alloc))
			if err != nil {
				return false
			}
			used := make([]int, nTypes)
			seen := map[int]bool{}
			for _, a := range got {
				if X[a.UnitIdx][a.Type] <= 0 {
					return false
				}
				if seen[a.UnitIdx] {
					return false
				}
				seen[a.UnitIdx] = true
				used[a.Type] += sfv[a.UnitIdx]
			}
			for j := range used {
				if used[j] > free[j] {
					return false
				}
			}
			m.RecordRound(alloc, got, 1, ids(alloc))
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestAssignResultOutlivesNextRound: Assign's result is the mechanism's, in
// two generations, so a round's assignments held across the next round's
// Assign (the shard server's reply cache, the coordinator's merged round)
// keep their values; the round after that may reuse their storage.
func TestAssignResultOutlivesNextRound(t *testing.T) {
	alloc := singleAlloc(
		[][]float64{{0.5, 0.5}, {0.5, 0.5}, {1, 0}, {0, 1}},
		[][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}},
	)
	m := New(2, []int{2, 2})
	var prev []Assignment
	var prevWas string
	for r := 0; r < 6; r++ {
		got, err := m.Assign(alloc, Workers{Free: []int{2, 1}}, sfOne, ids(alloc))
		if err != nil {
			t.Fatal(err)
		}
		m.RecordRound(alloc, got, 360, ids(alloc))
		if prev != nil && fmt.Sprint(prev) != prevWas {
			t.Fatalf("round %d rewrote round %d's assignments: %v, was %s", r, r-1, prev, prevWas)
		}
		if len(got) > 0 && len(prev) > 0 && &got[0] == &prev[0] {
			t.Fatalf("round %d's result shares round %d's storage", r, r-1)
		}
		prev, prevWas = got, fmt.Sprint(got)
	}
}
