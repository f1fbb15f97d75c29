package scheduler

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"gavel/internal/core"
)

// refMechanism is the round mechanism as it stood before its scratch was made
// reusable: a fresh [][]float64 priority matrix, a sort.Slice'd candidate
// list, a map busy set and per-type server slices every round, and a fresh
// received-time map every reset. It is kept verbatim as the reference the
// allocation-free Mechanism must agree with assignment for assignment.
type refMechanism struct {
	numTypes  int
	perServer []int
	timeOn    map[UnitKey][]float64
	totalTime []float64
}

func newRefMechanism(numTypes int, perServer []int) *refMechanism {
	ps := append([]int(nil), perServer...)
	for len(ps) < numTypes {
		ps = append(ps, 8)
	}
	return &refMechanism{
		numTypes:  numTypes,
		perServer: ps,
		timeOn:    map[UnitKey][]float64{},
		totalTime: make([]float64, numTypes),
	}
}

func (m *refMechanism) ResetReceived() {
	m.timeOn = map[UnitKey][]float64{}
	m.totalTime = make([]float64, m.numTypes)
}

func (m *refMechanism) Priorities(alloc *core.Allocation, jobIDs func(u int) []int) [][]float64 {
	pri := make([][]float64, len(alloc.Units))
	for ui := range alloc.Units {
		pri[ui] = make([]float64, m.numTypes)
		key := unitKey(alloc, ui, jobIDs)
		recv := m.timeOn[key]
		for j := 0; j < m.numTypes; j++ {
			x := alloc.X[ui][j]
			if x <= 0 {
				continue
			}
			var f float64
			if recv != nil && m.totalTime[j] > 0 {
				f = recv[j] / m.totalTime[j]
			}
			if f <= 0 {
				pri[ui][j] = math.Inf(1)
			} else {
				pri[ui][j] = x / f
			}
		}
	}
	return pri
}

func (m *refMechanism) Assign(alloc *core.Allocation, workers Workers, scaleFactor func(u int) int, jobIDs func(u int) []int) ([]Assignment, error) {
	if len(workers.Free) != m.numTypes {
		return nil, fmt.Errorf("scheduler: %d worker counts for %d types", len(workers.Free), m.numTypes)
	}
	pri := m.Priorities(alloc, jobIDs)

	type cand struct {
		u, j int
		p    float64
		x    float64
	}
	var cands []cand
	for u := range pri {
		for j := 0; j < m.numTypes; j++ {
			if pri[u][j] > 0 {
				cands = append(cands, cand{u: u, j: j, p: pri[u][j], x: alloc.X[u][j]})
			}
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		ca, cb := cands[a], cands[b]
		if ca.p != cb.p {
			return ca.p > cb.p
		}
		if ca.x != cb.x {
			return ca.x > cb.x
		}
		if ca.u != cb.u {
			return ca.u < cb.u
		}
		return ca.j < cb.j
	})

	free := append([]int(nil), workers.Free...)
	jobBusy := map[int]bool{}
	var out []Assignment
	for _, c := range cands {
		sf := scaleFactor(c.u)
		if sf <= 0 {
			sf = 1
		}
		if free[c.j] < sf {
			continue
		}
		conflict := false
		for _, id := range jobIDs(c.u) {
			if jobBusy[id] {
				conflict = true
				break
			}
		}
		if conflict {
			continue
		}
		for _, id := range jobIDs(c.u) {
			jobBusy[id] = true
		}
		free[c.j] -= sf
		out = append(out, Assignment{UnitIdx: c.u, Type: c.j})
	}

	m.placeOnServers(out, workers, scaleFactor)
	return out, nil
}

func (m *refMechanism) placeOnServers(out []Assignment, workers Workers, scaleFactor func(u int) int) {
	serverFree := make([][]int, m.numTypes)
	for j := 0; j < m.numTypes; j++ {
		per := m.perServer[j]
		nServers := (workers.Free[j] + per - 1) / per
		serverFree[j] = make([]int, nServers)
		remaining := workers.Free[j]
		for s := range serverFree[j] {
			if remaining >= per {
				serverFree[j][s] = per
				remaining -= per
			} else {
				serverFree[j][s] = remaining
				remaining = 0
			}
		}
	}
	order := make([]int, len(out))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return scaleFactor(out[order[a]].UnitIdx) > scaleFactor(out[order[b]].UnitIdx)
	})
	for _, i := range order {
		a := &out[i]
		sf := scaleFactor(a.UnitIdx)
		if sf <= 0 {
			sf = 1
		}
		best, bestFree := -1, math.MaxInt
		for s, f := range serverFree[a.Type] {
			if f >= sf && f < bestFree {
				best, bestFree = s, f
			}
		}
		if best >= 0 {
			serverFree[a.Type][best] -= sf
			a.Server = best
			a.Consolidated = true
			continue
		}
		a.Consolidated = sf == 1
		need := sf
		for s := range serverFree[a.Type] {
			if need == 0 {
				break
			}
			take := serverFree[a.Type][s]
			if take > need {
				take = need
			}
			serverFree[a.Type][s] -= take
			need -= take
			a.Server = s
		}
	}
}

func (m *refMechanism) RecordRound(alloc *core.Allocation, ran []Assignment, roundSeconds float64, jobIDs func(u int) []int) {
	for _, a := range ran {
		key := unitKey(alloc, a.UnitIdx, jobIDs)
		recv := m.timeOn[key]
		if recv == nil {
			recv = make([]float64, m.numTypes)
			m.timeOn[key] = recv
		}
		recv[a.Type] += roundSeconds
		m.totalTime[a.Type] += roundSeconds
	}
}

// randomRoundAlloc draws an allocation shaped to hit every tie the candidate
// order and the placement order can meet: singles plus pairs that share jobs,
// X drawn from a few values (equal X, and equal finite priorities once equal
// rounds have been recorded), zeroed rows (what a skip mask produces), and
// scale factors 1–8 plus a few 0s. Half the allocations carry memoized unit
// keys, half fall back to keys built from the member job IDs.
func randomRoundAlloc(rng *rand.Rand, numTypes int) (alloc *core.Allocation, ids []int, sf []int) {
	nJobs := 2 + rng.Intn(14)
	ids = make([]int, nJobs)
	for m := range ids {
		ids[m] = 100 + 3*m + rng.Intn(3)
	}
	keyed := rng.Intn(2) == 0
	tput := make([]float64, numTypes)
	for j := range tput {
		tput[j] = 1
	}
	var units []core.Unit
	for m := 0; m < nJobs; m++ {
		u := core.Single(m, tput)
		if keyed {
			u.Key = core.JobKey(ids[m])
		}
		units = append(units, u)
	}
	for p := rng.Intn(nJobs); p > 0; p-- {
		a, b := rng.Intn(nJobs), rng.Intn(nJobs)
		if a == b {
			continue
		}
		u := core.Pair(a, b, tput, tput)
		if keyed {
			u.Key = core.PairKey(ids[a], ids[b])
		}
		units = append(units, u)
	}
	levels := []float64{0, 0.25, 0.5, 0.5, 1, rng.Float64()}
	X := make([][]float64, len(units))
	for u := range X {
		X[u] = make([]float64, numTypes)
		if rng.Intn(6) == 0 {
			continue // masked
		}
		for j := range X[u] {
			X[u][j] = levels[rng.Intn(len(levels))]
		}
	}
	sfOfJob := make([]int, nJobs)
	for m := range sfOfJob {
		sfOfJob[m] = 1
		if rng.Intn(3) == 0 {
			sfOfJob[m] = 1 + rng.Intn(8)
		}
	}
	sf = make([]int, len(units))
	for u := range units {
		for _, m := range units[u].Jobs {
			sf[u] = max(sf[u], sfOfJob[m])
		}
		if rng.Intn(12) == 0 {
			sf[u] = 0 // a callback's nonsense demand counts as one device
		}
	}
	return &core.Allocation{Units: units, X: X}, ids, sf
}

// TestAssignMatchesReference drives the reference mechanism and Mechanism
// through the same seeded reset and round streams and requires the same
// assignments — unit, type, server and consolidation — every round. The
// Mechanism's jobIDs callback returns one reused buffer, the way a shard's
// does, so the test also holds it to reading each result before the next
// call.
func TestAssignMatchesReference(t *testing.T) {
	const numTypes = 3
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 40; trial++ {
		ref := newRefMechanism(numTypes, []int{8, 8, 4})
		mech := New(numTypes, []int{8, 8, 4})
		for reset := 0; reset < 6; reset++ {
			alloc, ids, sf := randomRoundAlloc(rng, numTypes)
			fresh := func(u int) []int {
				out := make([]int, len(alloc.Units[u].Jobs))
				for k, local := range alloc.Units[u].Jobs {
					out[k] = ids[local]
				}
				return out
			}
			var buf []int
			reused := func(u int) []int {
				buf = buf[:0]
				for _, local := range alloc.Units[u].Jobs {
					buf = append(buf, ids[local])
				}
				return buf
			}
			scale := func(u int) int { return sf[u] }
			free := make([]int, numTypes)
			for j := range free {
				free[j] = rng.Intn(25)
			}
			for r, rounds := 0, 5+rng.Intn(20); r < rounds; r++ {
				want, err := ref.Assign(alloc, Workers{Free: free}, scale, fresh)
				if err != nil {
					t.Fatal(err)
				}
				got, err := mech.Assign(alloc, Workers{Free: free}, scale, reused)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) || (got == nil) != (want == nil) {
					t.Fatalf("trial %d reset %d round %d:\n got  %v\n want %v", trial, reset, r, got, want)
				}
				seconds := float64(60 * (1 + rng.Intn(2)))
				ref.RecordRound(alloc, want, seconds, fresh)
				mech.RecordRound(alloc, got, seconds, reused)
			}
			if rng.Intn(3) > 0 {
				ref.ResetReceived()
				mech.ResetReceived()
			}
		}
	}
}
