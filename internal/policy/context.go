package policy

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"gavel/internal/core"
	"gavel/internal/lp"
	"gavel/internal/obs"
)

// SolveContext carries per-policy state across Allocate calls so a reset
// event (job arrival/completion, throughput update) does incremental work
// instead of a cold rebuild. For every LP a policy solves (keyed by a
// policy-chosen label) it caches the optimal simplex basis together with the
// column identities the basis was built over, the previous allocation, and
// solve statistics. On the next solve under the same label it picks the
// cheapest usable seed:
//
//   - identical column IDs and row count: positional warm start (SolveFrom);
//   - anything else — arrivals, departures, simultaneous churn, or a changed
//     constraint structure: remap the basis across shapes (Basis.Remap +
//     SolveFromMapped), dropping departed columns and entering newcomers
//     nonbasic;
//   - no cached entry, or an unusable seed: the cold two-phase path.
//
// A nil *SolveContext is valid everywhere and selects the cold path, so
// callers that do not persist state pass nil.
//
// Contexts are not safe for concurrent use; each simulation or scheduler
// instance owns one.
type SolveContext struct {
	bases map[string]*cachedBasis
	// Stats accumulates solve accounting across the context's lifetime.
	Stats SolveStats
	// NoWarm disables warm starting while keeping the accounting: every
	// solve runs the cold two-phase path. Used to measure the cold
	// baseline's iteration counts in benchmarks.
	NoWarm bool
	// Metrics, when non-nil, receives every solve as live telemetry series
	// (obs.LPMetrics) in addition to the Stats aggregates. The bundle's
	// instruments are atomic, so shard contexts running in parallel
	// goroutines may share one.
	Metrics *obs.LPMetrics

	scratch *solveScratch // lent to the Allocate in progress; nil between calls
	// dst is where the next Allocate's result goes (ExtractTo).
	dst *core.Allocation
	// scale is the per-job scale-factor scratch handed to the program build;
	// f64 a policy's per-job or per-variable vectors (floats); kept a
	// solution a policy holds across a later solve (keep).
	scale []int
	f64   []float64
	kept  []float64
	// rowIDs interns the per-job row and column identities policies derive
	// from external job IDs ("r:17", "wf:17"), so a reset formats a string
	// only for a job it has not seen under that prefix.
	rowIDs map[rowIDKey]string
	// solveSeconds accumulates the wall-clock of this context's LP solves
	// when Metrics is set; observeBuild subtracts it from an Allocate's wall.
	solveSeconds float64
}

// rowIDKey names one interned identity: a policy-chosen prefix and the
// external job ID.
type rowIDKey struct {
	prefix string
	id     int
}

// cachedBasis pairs a cached simplex basis with the column identities of the
// problem that produced it, which is what makes the basis portable across
// job-set changes. spare is the basis the current one replaced, whose
// storage the next solve under the label writes its snapshot into: a cached
// basis never leaves the context (ExportSeeds clones it).
type cachedBasis struct {
	basis *lp.Basis
	ids   []lp.ColumnID
	spare *lp.Basis
}

// SolveStats counts LP work issued through a SolveContext.
type SolveStats struct {
	Solves        int // LP solves issued
	WarmAttempts  int // solves seeded positionally from a same-shape basis
	WarmHits      int // positional seeds that actually ran warm
	RemapAttempts int // solves seeded from a basis remapped across shapes
	RemapHits     int // remapped seeds that actually ran warm
	Iterations    int // simplex iterations across all solves
	Pivots        int // basis changes across all solves
	Fallbacks     int // solves answered by the raw cold recovery re-solve (lp.Result.Recovered)

	PresolveReductions int // presolve row/column/bound reductions across all solves
	DualIterations     int // dual-simplex repair iterations across all solves
	Refactorizations   int // revised-engine basis LU refactorizations across all solves
}

// NewSolveContext returns an empty context.
func NewSolveContext() *SolveContext {
	return &SolveContext{bases: map[string]*cachedBasis{}, rowIDs: map[rowIDKey]string{}}
}

// solveScratch is the arena set one Allocate runs in: the lp.Workspace its
// solves run in and the core.Program its policy builds LPs on. Both grow to
// the largest problem they have served and are reused verbatim, so a
// steady-state reset allocates only what it returns. Nothing in a scratch
// reaches a result, so which context grew it never shows in an answer.
type solveScratch struct {
	ws   lp.Workspace
	prog core.Program
}

// scratches is the process-wide free list of solve scratches, LIFO so a
// serial caller gets back the scratch it just grew. It holds no more
// scratches than were ever borrowed at once, one per concurrent Allocate,
// and contexts taking turns grow each to the largest problem among them:
// arena memory is bounded by concurrent Allocates times the largest problem,
// not by the number of contexts ever created. Not a sync.Pool: every GC
// empties one, and the runtime forces a GC at least every two minutes, so a
// scheduler whose rounds are minutes apart would regrow its arenas each round.
var scratches struct {
	mu   sync.Mutex
	free []*solveScratch
}

// lend borrows a scratch for the context unless it already holds one, and
// reports whether it did; the borrower then calls giveBack.
func (c *SolveContext) lend() bool {
	if c.scratch != nil {
		return false
	}
	scratches.mu.Lock()
	if n := len(scratches.free); n > 0 {
		c.scratch, scratches.free = scratches.free[n-1], scratches.free[:n-1]
	} else {
		c.scratch = new(solveScratch)
	}
	scratches.mu.Unlock()
	return true
}

// giveBack returns the context's scratch to the free list, first detaching p
// (if non-nil) from it: a caller's problem must not point into a scratch
// another context may hold next.
func (c *SolveContext) giveBack(p *lp.Problem) {
	if p != nil {
		p.SetWorkspace(nil)
	}
	scratches.mu.Lock()
	scratches.free = append(scratches.free, c.scratch)
	scratches.mu.Unlock()
	c.scratch = nil
}

// giveBackAfter is giveBack for a solve lent the scratch alone: the caller
// gets a copy of the result's X, which is the scratch's.
func (c *SolveContext) giveBackAfter(p *lp.Problem, res **lp.Result) {
	if *res != nil {
		(*res).X = slices.Clone((*res).X)
	}
	c.giveBack(p)
}

// program builds the LP skeleton for in (core.NewProgram's layout, or its
// Charnes-Cooper homogenization) on the Program of the scratch lent to the
// Allocate in progress. The program is valid until the next call or the end
// of the Allocate; a policy solving several LPs over one input rewinds it
// (Program.Rewind) instead of asking again. A nil context builds a fresh
// program.
func (c *SolveContext) program(sense lp.Sense, in *Input, homogeneous bool) *core.Program {
	var pr *core.Program
	var scale []int
	if c == nil {
		pr, scale = new(core.Program), in.scaleFactors()
	} else {
		// Identities of departed jobs would otherwise accumulate forever.
		if len(c.rowIDs) > 16*len(in.Jobs)+4096 {
			clear(c.rowIDs)
		}
		c.scale = in.scaleFactorsInto(c.scale)
		pr, scale = &c.scratch.prog, c.scale
	}
	if homogeneous {
		pr.BuildHomogeneous(sense, in.Units, scale, in.Workers)
	} else {
		pr.Build(sense, in.Units, scale, in.Workers)
	}
	return pr
}

// floats returns n zeroed float64s of context scratch, a policy's per-job
// or per-variable vectors, valid until the next call (a nil context
// allocates).
func (c *SolveContext) floats(n int) []float64 {
	if c == nil {
		return make([]float64, n)
	}
	c.f64 = slices.Grow(c.f64[:0], n)[:n]
	clear(c.f64)
	return c.f64
}

// keep copies x, a Result.X a policy reads after a later solve, into context
// scratch valid until the next keep (a nil context allocates).
func (c *SolveContext) keep(x []float64) []float64 {
	if c == nil {
		return slices.Clone(x)
	}
	c.kept = append(c.kept[:0], x...)
	return c.kept
}

// ExtractTo makes dst, which its holder must be done with, the storage of the
// allocation the next Allocate returns; nil (the default) allocates it. Nil
// contexts ignore it.
func (c *SolveContext) ExtractTo(dst *core.Allocation) {
	if c != nil {
		c.dst = dst
	}
}

// result extracts the allocation a policy returns from the solution x of pr,
// into the ExtractTo destination when one is set.
func (c *SolveContext) result(pr *core.Program, x []float64) *core.Allocation {
	var dst *core.Allocation
	if c != nil {
		dst, c.dst = c.dst, nil
	}
	return pr.ExtractInto(dst, x)
}

// rowID returns the identity prefix+id (e.g. "r:17") policies give the rows
// and columns they derive from an external job ID, interned per context.
func (c *SolveContext) rowID(prefix string, id int) string {
	if c == nil {
		return prefix + strconv.Itoa(id)
	}
	k := rowIDKey{prefix, id}
	s, ok := c.rowIDs[k]
	if !ok {
		s = prefix + strconv.Itoa(id)
		c.rowIDs[k] = s
	}
	return s
}

// startBuild and observeBuild bracket one Allocate. The outermost bracket
// borrows the context's scratch and gives it back (an Allocate calling
// another policy's Allocate on the same context shares its borrow).
// Together they observe the wall-clock the call spent outside its LP solves —
// program build, basis remapping, extraction — as
// gavel_policy_build_seconds; without Metrics neither reads the clock.
func (c *SolveContext) startBuild() buildTimer {
	var t buildTimer
	if c == nil {
		return t
	}
	t.lent = c.lend()
	if c.Metrics != nil {
		t.start, t.solved = c.Metrics.Start(), c.solveSeconds
	}
	return t
}

func (c *SolveContext) observeBuild(t buildTimer) {
	if t.lent {
		c.dst = nil
		c.giveBack(nil)
	}
	if !t.start.IsZero() {
		c.Metrics.ObserveBuild(t.start, c.solveSeconds-t.solved)
	}
}

// buildTimer is the state startBuild hands observeBuild.
type buildTimer struct {
	lent   bool // this bracket borrowed the context's scratch
	start  time.Time
	solved float64 // the context's solveSeconds when the Allocate began
}

// NewSolveContextWith is NewSolveContext; the options are not read.
//
// Deprecated: inert. Pinned by bench/solve.go:114.
func NewSolveContextWith(lp.Options) *SolveContext { return NewSolveContext() }

// Seed is one exported warm-start entry: a cached simplex basis together
// with the column identities it was built over, keyed by the solve label it
// caches under. It is the unit of warm-start state the cluster service
// ships between processes — periodic shard snapshots, and the
// basis-carrying half of a job migration between shard daemons. Basis has
// one binary wire form (lp.Basis.WriteWire, which MarshalBinary also writes):
// the control plane's messages carry a Seed in it, and the coordinator's
// journal writes the same bytes.
type Seed struct {
	Label string
	IDs   []lp.ColumnID
	Basis *lp.Basis
}

// ExportSeeds snapshots every cached (label, basis, column-identity) entry,
// cloning the bases so the snapshot shares no mutable state with the
// context (a replaced basis's storage is reused). Entries come out in label
// order, so a snapshot is deterministic. Nil contexts export nil.
func (c *SolveContext) ExportSeeds() []Seed {
	if c == nil || len(c.bases) == 0 {
		return nil
	}
	labels := make([]string, 0, len(c.bases))
	for k := range c.bases {
		labels = append(labels, k)
	}
	sort.Strings(labels)
	out := make([]Seed, 0, len(labels))
	for _, k := range labels {
		ent := c.bases[k]
		if ent == nil || ent.basis == nil {
			continue
		}
		out = append(out, Seed{
			Label: k,
			IDs:   append([]lp.ColumnID(nil), ent.ids...),
			Basis: ent.basis.Clone(),
		})
	}
	return out
}

// ImportSeeds installs exported seeds for every label the context has no
// entry for, cloning the bases (the caller may reuse the slice). It is
// ExportSeeds' other half, with keep-local-entries semantics: a label the
// receiver already caches is never overwritten — the local basis covers more
// of the local column universe than a shipped one could. The next Solve
// under an imported label remaps the basis across whatever job-set
// difference exists (lp.Basis.Remap), so a migration or a recovery from a
// snapshot lands in the remapped bucket, never the cold one. Nil receivers
// are no-ops.
func (c *SolveContext) ImportSeeds(seeds []Seed) {
	if c == nil {
		return
	}
	for _, s := range seeds {
		if s.Basis == nil {
			continue
		}
		if _, ok := c.bases[s.Label]; ok {
			continue
		}
		c.bases[s.Label] = &cachedBasis{
			basis: s.Basis.Clone(),
			ids:   append([]lp.ColumnID(nil), s.IDs...),
		}
	}
}

// seed selects the warm-start strategy for a problem with the given column
// IDs and row count against the cached entry, returning the positional basis
// to use (may be nil) and the mapped basis to use (may be nil); at most one
// is non-nil.
func (c *SolveContext) seed(key string, ids []lp.ColumnID, numRows int) (*lp.Basis, *lp.MappedBasis) {
	ent := c.bases[key]
	if ent == nil || c.NoWarm {
		return nil, nil
	}
	if ids == nil || ent.ids == nil {
		// No identities to compare: legacy positional behavior, where
		// SolveFrom itself rejects shape mismatches.
		return ent.basis, nil
	}
	if sameIDs(ent.ids, ids) && ent.basis.NumRows() == numRows {
		return ent.basis, nil
	}
	return nil, ent.basis.RemapIn(&c.scratch.ws, ent.ids, ids)
}

// HasSeeds reports whether the context holds any cached basis. A context
// that has never completed a solve has nothing to warm-start from; a shard
// server uses this to decide whether a migration destination should import
// the source's seeds.
func (c *SolveContext) HasSeeds() bool {
	return c != nil && len(c.bases) > 0
}

func sameIDs(a, b []lp.ColumnID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// record folds a solve's outcome into the stats and caches its basis.
func (c *SolveContext) record(key string, ids []lp.ColumnID, res *lp.Result) {
	switch {
	case res.Remapped:
		c.Stats.RemapHits++
	case res.WarmStarted:
		c.Stats.WarmHits++
	}
	if res.Recovered {
		c.Stats.Fallbacks++
	}
	c.Stats.Iterations += res.Iterations
	c.Stats.Pivots += res.Pivots
	c.Stats.PresolveReductions += res.PresolveReductions
	c.Stats.DualIterations += res.DualIterations
	c.Stats.Refactorizations += res.Refactorizations
	if res.Status == lp.Optimal && res.Basis != nil {
		// ids is typically the program's own slice, rewritten by the next
		// build: the cache keeps a copy, in the entry's storage.
		ent := c.bases[key]
		if ent == nil {
			ent = &cachedBasis{}
			c.bases[key] = ent
		}
		ent.spare, ent.basis = ent.basis, res.Basis
		if ids == nil {
			ent.ids = nil
		} else {
			ent.ids = append(ent.ids[:0], ids...)
		}
	}
}

// solveKind classifies a result for the live-series kind label.
func solveKind(res *lp.Result) string {
	switch {
	case res.Remapped:
		return "remap"
	case res.WarmStarted:
		return "warm"
	}
	return "cold"
}

// emit feeds one completed solve into the live metrics bundle (no-op when
// Metrics is nil). A solve the recovery re-solve answered additionally counts
// under kind=fallback.
func (c *SolveContext) emit(key string, res *lp.Result, start time.Time) {
	if c.Metrics == nil || res == nil {
		return
	}
	c.solveSeconds += c.Metrics.RecordSolve(solveKind(res), key, res.Iterations, res.DualIterations,
		res.PresolveReductions, res.Refactorizations, start)
	if res.Recovered {
		c.Metrics.Solves.With("fallback").Inc()
	}
}

// Solve solves p, seeding from the basis cached under key — positionally
// when the column IDs and row count match, remapped across shapes otherwise
// — and caches the new optimal basis (with ids) for the next call with the
// same key. ids names p's variables in order (e.g. Program.ColumnIDs); nil
// disables cross-shape reuse but keeps same-shape warm starts. With a nil
// receiver it is exactly p.Solve(). Inside an Allocate Result.X is valid
// until the context's next solve (keep copies it), outside one it is the
// caller's; Result.Basis until the second solve after it under key.
func (c *SolveContext) Solve(key string, p *lp.Problem, ids []lp.ColumnID) (res *lp.Result, err error) {
	if c == nil {
		return p.Solve()
	}
	if c.lend() { // outside any Allocate: lent for this call alone
		defer c.giveBackAfter(p, &res)
	}
	p.SetWorkspace(&c.scratch.ws)
	c.Stats.Solves++
	if ent := c.bases[key]; ent != nil && ent.spare != nil {
		c.scratch.ws.Recycle(ent.spare)
		ent.spare = nil
	}
	prev, mapped := c.seed(key, ids, p.NumConstraints())
	start := c.Metrics.Start()
	switch {
	case prev != nil:
		c.Stats.WarmAttempts++
		res, err = p.SolveFrom(prev)
	case mapped != nil:
		c.Stats.RemapAttempts++
		res, err = p.SolveFromMapped(mapped)
	default:
		res, err = p.Solve()
	}
	if err != nil {
		return res, err
	}
	c.record(key, ids, res)
	c.emit(key, res, start)
	return res, nil
}

// solveOptimal is Solve over pr's program and column identities for a
// policy that needs an optimum: a failed solve and any other status are
// errors naming label.
func (c *SolveContext) solveOptimal(label string, pr *core.Program) (*lp.Result, error) {
	res, err := c.Solve(label, pr.P, pr.ColumnIDs())
	if err != nil {
		return nil, fmt.Errorf("%s LP: %w", label, err)
	}
	if res.Status != lp.Optimal {
		return nil, fmt.Errorf("%s LP: %v", label, res.Status)
	}
	return res, nil
}
