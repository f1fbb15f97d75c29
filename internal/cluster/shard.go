package cluster

import (
	"fmt"
	"slices"
	"time"

	"gavel/internal/core"
	"gavel/internal/policy"
	"gavel/internal/scheduler"
)

// Shard is one partition of a sharded scheduling service: it owns a disjoint
// subset of the cluster's jobs and a per-type slice of its devices, and runs
// Gavel's full per-cluster machinery — a policy solve context with cached
// simplex bases, an incrementally maintained throughput cache, and a
// round-based mechanism — over just that subset. A shard is the engine behind
// one rpc.ShardServer; the coordinator (rpc.Service) drives it over the
// control plane — by direct call in memory, by the control plane's codec over
// TCP — and owns every cross-shard decision (routing, rebalance, merge).
// Shards never share mutable state, so the coordinator fans allocation and
// round assignment out to all of them concurrently; the only cross-shard
// traffic is job migration, which moves a job's throughput rows and warm LP
// seeds (SolveContext.ExportSeeds / ImportSeeds) between shards.
type Shard struct {
	// Index is the shard's position within the coordinator, fixed at
	// construction. Routing, merging, and stats all iterate shards in index
	// order, which is what keeps sharded runs deterministic.
	Index int

	// Workers is this shard's per-type device slice; WorkerInts the same as
	// integers; PerServer the per-type devices-per-server (shared with every
	// shard); Prices the per-type dollar rates.
	Workers    []float64
	WorkerInts []int
	PerServer  []int
	Prices     []float64

	// Ctx carries the shard's warm-start state across solves. Nil selects
	// cold solves (the benchmark baseline).
	Ctx *policy.SolveContext
	// Cache holds the shard's job/pair throughput matrices.
	Cache *core.ThroughputCache
	// Mech is the shard's round-based mechanism over its worker slice.
	Mech *scheduler.Mechanism

	// Alloc is the current allocation (nil before the first Allocate);
	// AllocIDs the external job IDs it was computed over, in unit order for
	// the single-job prefix. Both stay valid until the second successful
	// Allocate after the one that produced them.
	Alloc    *core.Allocation
	AllocIDs []int

	// Admitted counts jobs routed here on arrival; MigratedIn/MigratedOut
	// count rebalance and recovery moves (the shard server books all three);
	// PolicyTime/PolicyCalls account Allocate work.
	Admitted    int
	MigratedIn  int
	MigratedOut int
	PolicyTime  time.Duration
	PolicyCalls int

	jobs   []int // resident job IDs in admission order (deterministic)
	jobPos map[int]int

	// Allocate writes the IDs, units and X of an allocation into gens[next],
	// the generation Alloc does not use, and flips next only when it
	// succeeds: a failed reset never touches the live allocation. in is the
	// policy input, reused every reset.
	gens [2]struct {
		ids   []int
		units core.UnitSlab
		alloc core.Allocation
	}
	next int
	in   policy.Input

	// Round scratch: unitJobIDs' result (valid until its next call) and
	// AssignRound's masked allocation, whose masked rows share one read-only
	// zero row. Both belong to the shard and never leave AssignRound.
	unitIDs []int
	masked  core.Allocation
	zeroRow []float64
}

// NewShard builds an empty shard over the given per-type worker slice — one
// partition of the cluster, as split by SplitWorkerCounts.
func NewShard(index int, workerInts, perServer []int, prices []float64, ctx *policy.SolveContext) *Shard {
	numTypes := len(workerInts)
	workers := make([]float64, numTypes)
	for j, w := range workerInts {
		workers[j] = float64(w)
	}
	return &Shard{
		Index:      index,
		Workers:    workers,
		WorkerInts: append([]int(nil), workerInts...),
		PerServer:  append([]int(nil), perServer...),
		Prices:     append([]float64(nil), prices...),
		Ctx:        ctx,
		Cache:      core.NewThroughputCache(numTypes),
		Mech:       scheduler.New(numTypes, perServer),
		jobPos:     map[int]int{},
		zeroRow:    make([]float64, numTypes),
	}
}

// Add inserts a job with its isolated throughput row: an admission or the
// receiving half of a migration.
func (s *Shard) Add(id, scaleFactor int, tput []float64) {
	if scaleFactor < 1 {
		scaleFactor = 1
	}
	s.Cache.AddJob(id, scaleFactor, tput)
	s.jobPos[id] = len(s.jobs)
	s.jobs = append(s.jobs, id)
}

// Remove drops a resident job — a completion or the sending half of a
// migration — preserving the admission order of the remainder. Unknown IDs
// are no-ops.
func (s *Shard) Remove(id int) {
	pos, ok := s.jobPos[id]
	if !ok {
		return
	}
	s.Cache.RemoveJob(id)
	s.jobs = append(s.jobs[:pos], s.jobs[pos+1:]...)
	delete(s.jobPos, id)
	for i := pos; i < len(s.jobs); i++ {
		s.jobPos[s.jobs[i]] = i
	}
}

// SetPairIfAbsent installs a space-sharing pair's throughput rows unless the
// pair is already cached. The HasPair gate lives shard-side so the
// coordinator can send candidate rows unconditionally with every placement.
func (s *Shard) SetPairIfAbsent(a, b int, ta, tb []float64) {
	if s.Cache.HasPair(a, b) {
		return
	}
	s.Cache.SetPair(a, b, ta, tb)
}

// Observe feeds one measured pair throughput into the shard's cache.
func (s *Shard) Observe(a, b, typ int, ta, tb float64) {
	s.Cache.ObservePair(a, b, typ, ta, tb)
}

// ObserveJob overwrites one resident job's isolated throughput row with
// measured values, for the next allocation to use. Non-resident IDs are
// ignored (the cache no-ops them), keeping the update idempotent against
// departures.
func (s *Shard) ObserveJob(id int, tput []float64) {
	s.Cache.ObserveJob(id, tput)
}

// Has reports whether the job is resident.
func (s *Shard) Has(id int) bool { _, ok := s.jobPos[id]; return ok }

// Jobs returns the resident job IDs in admission order (copy).
func (s *Shard) Jobs() []int { return append([]int(nil), s.jobs...) }

// NumJobs returns the resident job count.
func (s *Shard) NumJobs() int { return len(s.jobs) }

// JobInfoFn supplies the caller-side view of one job when a shard builds a
// policy input: weights, remaining work, elapsed time, SLOs. The shard
// overwrites ID, Tput, ScaleFactor, and NumActiveJobs from its own state
// (NumActiveJobs becomes the shard-local active count — the job's fairness
// baseline is its shard's slice of the cluster).
type JobInfoFn func(id int) policy.JobInfo

// Allocate recomputes the shard's allocation: it assembles the policy input
// from the throughput cache (single units in admission order, then pair
// candidates above minGain, capped at maxPairs per job), solves through the
// shard's context — warm, remapped, or cold, per the context's usual seed
// selection — and resets the mechanism's received-time accounting. An empty
// shard gets an empty allocation without invoking the policy.
func (s *Shard) Allocate(pol policy.Policy, minGain float64, maxPairs int, info JobInfoFn) error {
	if len(s.jobs) == 0 {
		s.Alloc = &core.Allocation{}
		s.AllocIDs = nil
		s.Mech.ResetReceived()
		return nil
	}
	g := &s.gens[s.next]
	g.ids = append(g.ids[:0], s.jobs...)
	in := &s.in
	in.Workers, in.Prices = s.Workers, s.Prices
	in.Units = s.Cache.UnitsInto(&g.units, g.ids, minGain, maxPairs)
	in.Jobs = in.Jobs[:0]
	for _, id := range g.ids {
		ji := info(id)
		ji.ID = id
		ji.Tput = s.Cache.JobTput(id)
		ji.ScaleFactor = s.Cache.ScaleFactor(id)
		ji.NumActiveJobs = len(g.ids)
		in.Jobs = append(in.Jobs, ji)
	}
	start := time.Now()
	s.Ctx.ExtractTo(&g.alloc)
	alloc, err := pol.Allocate(in, s.Ctx)
	s.Ctx.ExtractTo(nil)
	s.PolicyTime += time.Since(start)
	s.PolicyCalls++
	if err != nil {
		return fmt.Errorf("shard %d: %w", s.Index, err)
	}
	s.Alloc, s.AllocIDs = alloc, g.ids
	s.next ^= 1
	s.Mech.ResetReceived()
	return nil
}

// unitJobIDs maps unit u's member positions to external job IDs, in a
// buffer the next call overwrites.
func (s *Shard) unitJobIDs(u int) []int {
	s.unitIDs = s.unitIDs[:0]
	for _, local := range s.Alloc.Units[u].Jobs {
		s.unitIDs = append(s.unitIDs, s.AllocIDs[local])
	}
	return s.unitIDs
}

// unitScaleFactor is the max member scale factor of unit u.
func (s *Shard) unitScaleFactor(u int) int {
	sf := 1
	for _, local := range s.Alloc.Units[u].Jobs {
		if v := s.Cache.ScaleFactor(s.AllocIDs[local]); v > sf {
			sf = v
		}
	}
	return sf
}

// AssignRound runs one mechanism round over the shard's current allocation
// and records the received time. skip, when non-nil, masks units any of
// whose member jobs must not run this round (e.g. finished since the
// allocation was computed). Returned assignments index into s.Alloc.Units.
func (s *Shard) AssignRound(roundSeconds float64, skip func(id int) bool) ([]scheduler.Assignment, error) {
	if s.Alloc == nil || len(s.Alloc.Units) == 0 {
		return nil, nil
	}
	alloc := s.Alloc
	if skip != nil {
		s.masked.Units = alloc.Units
		s.masked.X = slices.Grow(s.masked.X[:0], len(alloc.X))
		for u, row := range alloc.X {
			if slices.ContainsFunc(alloc.Units[u].Jobs, func(local int) bool { return skip(s.AllocIDs[local]) }) {
				row = s.zeroRow
			}
			s.masked.X = append(s.masked.X, row)
		}
		alloc = &s.masked
	}
	assigns, err := s.Mech.Assign(alloc, scheduler.Workers{Free: s.WorkerInts}, s.unitScaleFactor, s.unitJobIDs)
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", s.Index, err)
	}
	s.Mech.RecordRound(alloc, assigns, roundSeconds, s.unitJobIDs)
	return assigns, nil
}
