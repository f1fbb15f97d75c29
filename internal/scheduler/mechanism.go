// Package scheduler implements Gavel's preemptive round-based scheduling
// mechanism (§5): given a target allocation X computed by a policy, it
// selects the scheduling units (jobs or space-sharing pairs) to run in each
// fixed-length round so the realized time fractions track X. Units are
// picked greedily in decreasing priority order, where
//
//	priority[u][j] = X[u][j] / f[u][j]
//
// and f[u][j] is the fraction of type-j time unit u has actually received
// since the allocation was computed (Figure 4, Algorithm 1). A unit that
// has not run yet but has positive X has infinite priority; scheduling a
// unit removes every conflicting unit (any unit sharing one of its jobs)
// from the round, and units whose scale factor exceeds the remaining
// workers of a type are skipped rather than starving the round.
package scheduler

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"gavel/internal/core"
)

// UnitKey canonically identifies a scheduling unit by its member job IDs,
// so received-time accounting survives allocation recomputations that
// reorder units.
type UnitKey string

// KeyFor builds the canonical key from member job IDs. The input slice is
// never mutated (the sort runs on a copy).
func KeyFor(jobIDs []int) UnitKey {
	ids := append([]int(nil), jobIDs...)
	sort.Ints(ids)
	var b strings.Builder
	for i, id := range ids {
		if i > 0 {
			b.WriteByte('+')
		}
		b.WriteString(strconv.Itoa(id))
	}
	return UnitKey(b.String())
}

// unitKey returns the received-time accounting key for unit u of alloc: the
// unit's memoized stable identity when present (units assembled by
// core.ThroughputCache.Units carry JobKey/PairKey, already derived from
// external job IDs), falling back to building one from the member job IDs.
// The memoized path is what keeps sharded rounds from rebuilding O(units)
// strings per shard per round; the two key namespaces never mix within one
// mechanism because a unit's identity either is or is not keyed for the
// whole run.
func unitKey(alloc *core.Allocation, u int, jobIDs func(u int) []int) UnitKey {
	if k := alloc.Units[u].Key; k != "" {
		return UnitKey(k)
	}
	return KeyFor(jobIDs(u))
}

// Assignment is one scheduled unit for the upcoming round.
type Assignment struct {
	UnitIdx int // index into the allocation's units
	Type    int // accelerator type
	// Consolidated reports whether a multi-worker job fit on one server.
	Consolidated bool
	// Server is the server index chosen within the type (informational).
	Server int
}

// Mechanism carries received-time state across rounds, and the scratch a
// round reuses: in steady state neither Assign nor ResetReceived allocates.
// A Mechanism is not safe for concurrent use; each shard owns one.
type Mechanism struct {
	numTypes  int
	perServer []int // devices per server, per type

	// Seconds received per type since the last reset: a unit's numTypes
	// entries start at recv[recvAt[key]].
	recvAt    map[UnitKey]int
	recv      []float64
	totalTime []float64 // total seconds handed out per type

	// Round scratch, overwritten by every Assign.
	cands  []cand
	free   []int
	busy   map[int]bool
	placed []placed // picked assignments in pick order
	slots  []int    // free devices per server; type j's are slots[slotAt[j]:slotAt[j+1]]
	slotAt []int

	// Assign's results: a round writes the generation the last one did not.
	outs [2][]Assignment
	gen  int
}

// cand is one schedulable (unit, type) pair with its priority.
type cand struct {
	u, j int
	p, x float64
}

// placed is a picked assignment's index in Assign's result and its unit's
// scale factor as the callback reported it.
type placed struct{ i, sf int }

// New constructs a mechanism for a cluster with the given per-type device
// counts per server (used for consolidation decisions).
func New(numTypes int, perServer []int) *Mechanism {
	ps := append([]int(nil), perServer...)
	for len(ps) < numTypes {
		ps = append(ps, 8)
	}
	return &Mechanism{
		numTypes:  numTypes,
		perServer: ps,
		recvAt:    map[UnitKey]int{},
		totalTime: make([]float64, numTypes),
		busy:      map[int]bool{},
		slotAt:    make([]int, numTypes+1),
	}
}

// ResetReceived clears received-time accounting; call when a new allocation
// is computed (the mechanism tracks fractions between recomputations,
// Figure 3).
func (m *Mechanism) ResetReceived() {
	clear(m.recvAt)
	m.recv = m.recv[:0]
	clear(m.totalTime)
}

// Workers describes per-type free device counts for a round.
type Workers struct {
	Free []int
}

// Assign implements Algorithm 1: greedily schedule the highest-priority
// (unit, type) pairs, skipping units that no longer fit, until no workers
// remain or no schedulable unit has positive priority. scaleFactor gives
// each unit's device demand; jobIDs its member job IDs, which Assign reads
// before its next call, so the callback may return a reused buffer. The
// returned slice (nil when nothing runs) is the mechanism's, valid until the
// second Assign after it.
func (m *Mechanism) Assign(alloc *core.Allocation, workers Workers, scaleFactor func(u int) int, jobIDs func(u int) []int) ([]Assignment, error) {
	if len(workers.Free) != m.numTypes {
		return nil, fmt.Errorf("scheduler: %d worker counts for %d types", len(workers.Free), m.numTypes)
	}
	// priority[u][j] = X[u][j] / f[u][j], +Inf where the unit has received
	// nothing and X > 0. Only positive priorities become candidates.
	m.cands = m.cands[:0]
	for u := range alloc.Units {
		off, seen := m.recvAt[unitKey(alloc, u, jobIDs)]
		for j := 0; j < m.numTypes; j++ {
			x := alloc.X[u][j]
			if x <= 0 {
				continue
			}
			var f float64
			if seen && m.totalTime[j] > 0 {
				f = m.recv[off+j] / m.totalTime[j]
			}
			var p float64
			if f <= 0 {
				p = math.Inf(1)
			} else {
				p = x / f
			}
			if p > 0 {
				m.cands = append(m.cands, cand{u: u, j: j, p: p, x: x})
			}
		}
	}
	// Highest priority first; among infinite priorities prefer larger
	// target allocation; final tie-break on unit and type. That is a total
	// order (no priority is NaN), so the sort algorithm cannot change it.
	slices.SortFunc(m.cands, func(a, b cand) int {
		switch {
		case a.p != b.p:
			return cmp.Compare(b.p, a.p)
		case a.x != b.x:
			return cmp.Compare(b.x, a.x)
		case a.u != b.u:
			return a.u - b.u
		}
		return a.j - b.j
	})

	m.free = append(m.free[:0], workers.Free...)
	bound := 0 // every assignment takes at least one free device
	for _, f := range m.free {
		bound += max(f, 0)
	}
	clear(m.busy)
	m.placed = m.placed[:0]
	m.gen ^= 1
	out := m.outs[m.gen][:0]
	for _, c := range m.cands {
		raw := scaleFactor(c.u)
		sf := max(raw, 1)
		if m.free[c.j] < sf {
			continue // cannot fit this round; keeps high priority for later
		}
		ids := jobIDs(c.u)
		if slices.ContainsFunc(ids, func(id int) bool { return m.busy[id] }) {
			continue
		}
		for _, id := range ids {
			m.busy[id] = true
		}
		m.free[c.j] -= sf
		if len(out) == 0 && cap(out) < min(len(m.cands), bound) {
			out = make([]Assignment, 0, bound) // never outgrown while the devices last
		}
		m.placed = append(m.placed, placed{i: len(out), sf: raw})
		out = append(out, Assignment{UnitIdx: c.u, Type: c.j})
	}

	m.placeOnServers(out, workers)
	m.outs[m.gen] = out
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// placeOnServers assigns each scheduled unit to servers within its type,
// preferring to consolidate multi-worker jobs onto a single server
// (placement sensitivity, §3.1/§5: jobs are placed in decreasing order of
// requested workers to minimize fragmentation).
func (m *Mechanism) placeOnServers(out []Assignment, workers Workers) {
	// Free slots per server, per type, reconstructed fresh each round.
	m.slots = m.slots[:0]
	for j := 0; j < m.numTypes; j++ {
		m.slotAt[j] = len(m.slots)
		per, remaining := m.perServer[j], workers.Free[j]
		for n := (remaining + per - 1) / per; n > 0; n-- {
			s := min(remaining, per)
			m.slots = append(m.slots, s)
			remaining -= s
		}
	}
	m.slotAt[m.numTypes] = len(m.slots)
	// Ties on scale factor must compare equal and the sort must stay
	// unstable: placement is pinned to pdqsort's order among equal scale
	// factors (TestAssignMatchesReference).
	slices.SortFunc(m.placed, func(a, b placed) int { return cmp.Compare(b.sf, a.sf) })
	for _, p := range m.placed {
		a := &out[p.i]
		sf := max(p.sf, 1)
		servers := m.slots[m.slotAt[a.Type]:m.slotAt[a.Type+1]]
		// Best fit: smallest server slot that holds the whole job.
		best, bestFree := -1, math.MaxInt
		for s, f := range servers {
			if f >= sf && f < bestFree {
				best, bestFree = s, f
			}
		}
		if best >= 0 {
			servers[best] -= sf
			a.Server = best
			a.Consolidated = true
			continue
		}
		// Spread across servers: unconsolidated placement.
		a.Consolidated = sf == 1
		need := sf
		for s := range servers {
			if need == 0 {
				break
			}
			take := min(servers[s], need)
			servers[s] -= take
			need -= take
			a.Server = s
		}
	}
}

// RecordRound accumulates received time for the units of alloc that ran.
func (m *Mechanism) RecordRound(alloc *core.Allocation, ran []Assignment, roundSeconds float64, jobIDs func(u int) []int) {
	for _, a := range ran {
		key := unitKey(alloc, a.UnitIdx, jobIDs)
		off, ok := m.recvAt[key]
		if !ok {
			off = len(m.recv)
			m.recv = slices.Grow(m.recv, m.numTypes)[:off+m.numTypes]
			clear(m.recv[off:])
			m.recvAt[key] = off
		}
		m.recv[off+a.Type] += roundSeconds
		m.totalTime[a.Type] += roundSeconds
	}
}

// ReceivedSeconds returns the time unit key has received per type since the
// last reset (for tests and introspection).
func (m *Mechanism) ReceivedSeconds(key UnitKey) []float64 {
	out := make([]float64, m.numTypes)
	if off, ok := m.recvAt[key]; ok {
		copy(out, m.recv[off:])
	}
	return out
}
