// Package core implements Gavel's policy framework: allocation matrices over
// scheduling units (single jobs and space-sharing job pairs), effective
// throughput (§3.1), and the shared linear-program constraint structure that
// makes any objective expressible over effective throughput automatically
// heterogeneity-, colocation-, and placement-aware.
package core

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"gavel/internal/lp"
)

// Unit is a scheduling unit: one job, or a pair of jobs sharing a device
// (space sharing, §3.1). Jobs holds indices into the policy input's job
// list; Tput[k][j] is the throughput (iterations/sec) of member k when the
// unit runs on accelerator type j. A zero Tput entry means the unit cannot
// run on that type.
type Unit struct {
	Jobs []int
	Tput [][]float64
	// Key is the unit's stable identity across reset events, derived from
	// the external job IDs it schedules (JobKey/PairKey), not the positions
	// in Jobs. Program uses it to name LP columns so a cached simplex basis
	// can be remapped after arrivals and departures reshuffle positions.
	// Empty is valid and falls back to positional naming (no cross-shape
	// reuse for that column).
	Key string
}

// unitIDs are the LP identities a unit key contributes to a Program: its
// budget-row identity and one column identity per accelerator type. A
// Program mints them the first time it meets a key and reuses them on every
// later build, so a steady-state reset formats no strings.
type unitIDs struct {
	budget string        // "b:<key>"
	cols   []lp.ColumnID // "<key>@<type>"
}

func newUnitIDs(key string, numTypes int) *unitIDs {
	ids := &unitIDs{budget: "b:" + key, cols: make([]lp.ColumnID, numTypes)}
	for j := range ids.cols {
		ids.cols[j] = lp.ColumnID(key + "@" + strconv.Itoa(j))
	}
	return ids
}

// Single constructs a one-job unit.
func Single(job int, tput []float64) Unit {
	return Unit{Jobs: []int{job}, Tput: [][]float64{tput}}
}

// Pair constructs a two-job space-sharing unit.
func Pair(a, b int, ta, tb []float64) Unit {
	return Unit{Jobs: []int{a, b}, Tput: [][]float64{ta, tb}}
}

// Keyed returns a copy of the unit carrying the given stable identity.
func (u Unit) Keyed(key string) Unit {
	u.Key = key
	return u
}

// JobKey is the stable unit key for the single-job unit of the job with the
// given external ID.
func JobKey(id int) string {
	var buf [21]byte // "j" and an int64: formatted in one allocation
	return string(strconv.AppendInt(append(buf[:0], 'j'), int64(id), 10))
}

// PairKey is the stable unit key for the space-sharing pair of the jobs with
// the given external IDs (order-insensitive: a pair's LP column means the
// same thing regardless of which member is listed first).
func PairKey(a, b int) string {
	if a > b {
		a, b = b, a
	}
	var buf [42]byte // "p", two int64s, "|": formatted in one allocation
	k := strconv.AppendInt(append(buf[:0], 'p'), int64(a), 10)
	return string(strconv.AppendInt(append(k, '|'), int64(b), 10))
}

// IsPair reports whether the unit is a space-sharing combination.
func (u *Unit) IsPair() bool { return len(u.Jobs) == 2 }

// scale returns the number of workers the unit occupies: the largest scale
// factor among its members (at least 1).
func (u *Unit) scale(scaleFactors []int) float64 {
	sf := 1.0
	for _, jm := range u.Jobs {
		if jm < len(scaleFactors) && float64(scaleFactors[jm]) > sf {
			sf = float64(scaleFactors[jm])
		}
	}
	return sf
}

// MemberIndex is the job → unit membership of a unit list in compressed
// sparse row form: for every job, the units that contain it in ascending
// unit order, each with the job's member slot in that unit. It is what lets
// program build, throughput terms and per-job accounting walk exactly a
// job's own units — O(members) — instead of scanning every unit for every
// job. Ascending unit order is part of the contract: it is the order the
// per-job scans visited units in, so sums built from the index keep their
// floating-point operand order.
//
// The zero value is empty; Build reuses the index's storage.
type MemberIndex struct {
	start []int // job m's entries are [start[m], start[m+1])
	unit  []int
	slot  []int
}

// Build rebuilds the index over units: one counting pass and one filling
// pass over the (unit, member) incidences, nothing else. A unit listing the
// same job twice contributes that job's first slot only.
func (idx *MemberIndex) Build(units []Unit) {
	numJobs := 0
	for ui := range units {
		for _, jm := range units[ui].Jobs {
			if jm+1 > numJobs {
				numJobs = jm + 1
			}
		}
	}
	idx.start = grow(idx.start, numJobs+1)
	start := idx.start
	for m := range start {
		start[m] = 0
	}
	for ui := range units {
		jobs := units[ui].Jobs
		for k, jm := range jobs {
			if !repeated(jobs, k) {
				start[jm+1]++
			}
		}
	}
	for m := 0; m < numJobs; m++ {
		start[m+1] += start[m]
	}
	total := start[numJobs]
	idx.unit = grow(idx.unit, total)
	idx.slot = grow(idx.slot, total)
	// Fill by advancing each job's cursor, then shift the cursors back.
	for ui := range units {
		jobs := units[ui].Jobs
		for k, jm := range jobs {
			if !repeated(jobs, k) {
				at := start[jm]
				idx.unit[at], idx.slot[at] = ui, k
				start[jm]++
			}
		}
	}
	for m := numJobs; m > 0; m-- {
		start[m] = start[m-1]
	}
	start[0] = 0
}

// repeated reports whether jobs[k] already occurs before position k.
func repeated(jobs []int, k int) bool {
	for _, j := range jobs[:k] {
		if j == jobs[k] {
			return true
		}
	}
	return false
}

// NumJobs returns the number of jobs the index covers (one past the largest
// job index any unit references).
func (idx *MemberIndex) NumJobs() int {
	if len(idx.start) == 0 {
		return 0
	}
	return len(idx.start) - 1
}

// Len returns the number of (unit, member) incidences indexed.
func (idx *MemberIndex) Len() int { return len(idx.unit) }

// Of returns the units containing job, ascending, and the job's member slot
// in each (parallel slices; read-only views of the index).
func (idx *MemberIndex) Of(job int) (units, slots []int) {
	if job < 0 || job >= idx.NumJobs() {
		return nil, nil
	}
	lo, hi := idx.start[job], idx.start[job+1]
	return idx.unit[lo:hi], idx.slot[lo:hi]
}

// Allocation is the policy output: X[u][j] is the fraction of wall-clock
// time unit u should spend on accelerator type j.
type Allocation struct {
	Units []Unit
	X     [][]float64

	slab []float64 // X's rows, for ExtractInto to reuse
}

// slotOf returns job's member slot in the unit, or -1.
func (u *Unit) slotOf(job int) int {
	for k, j := range u.Jobs {
		if j == job {
			return k
		}
	}
	return -1
}

// EffectiveThroughput returns throughput(m, X): the time-weighted average
// throughput of job m across its units and accelerator types (§3.1). It
// scans every unit, which is the best a single query can do; callers that
// want every job's value use EffectiveThroughputs, one pass for all of them.
func (a *Allocation) EffectiveThroughput(job int) float64 {
	var s float64
	for ui := range a.Units {
		u := &a.Units[ui]
		k := u.slotOf(job)
		if k < 0 {
			continue
		}
		for j, x := range a.X[ui] {
			if x > 0 {
				s += x * u.Tput[k][j]
			}
		}
	}
	return s
}

// EffectiveThroughputs returns throughput(m, X) for every job m < numJobs in
// one pass over the units. Each job's sum accumulates in ascending unit then
// type order — the order EffectiveThroughput adds in — so the two agree to
// the last bit.
func (a *Allocation) EffectiveThroughputs(numJobs int) []float64 {
	out := make([]float64, numJobs)
	for ui := range a.Units {
		u := &a.Units[ui]
		for k, m := range u.Jobs {
			if m >= numJobs || u.slotOf(m) != k {
				continue
			}
			for j, x := range a.X[ui] {
				if x > 0 {
					out[m] += x * u.Tput[k][j]
				}
			}
		}
	}
	return out
}

// JobTimeFraction returns the total time fraction job m is scheduled for
// (across all its units and types). Valid allocations keep this <= 1.
func (a *Allocation) JobTimeFraction(job int) float64 {
	var s float64
	for ui := range a.Units {
		if a.Units[ui].slotOf(job) < 0 {
			continue
		}
		for _, x := range a.X[ui] {
			s += x
		}
	}
	return s
}

// JobTimeFractions returns JobTimeFraction for every job m < numJobs in one
// pass over the units, with the same accumulation order per job.
func (a *Allocation) JobTimeFractions(numJobs int) []float64 {
	out := make([]float64, numJobs)
	for ui := range a.Units {
		u := &a.Units[ui]
		for k, m := range u.Jobs {
			if m >= numJobs || u.slotOf(m) != k {
				continue
			}
			for _, x := range a.X[ui] {
				out[m] += x
			}
		}
	}
	return out
}

// Validate checks the allocation against the standard constraints: entries
// in [0,1], per-job time budget <= 1, and per-type worker capacity.
func (a *Allocation) Validate(scaleFactors []int, workers []float64) error {
	numJobs := 0
	for _, u := range a.Units {
		for _, j := range u.Jobs {
			if j+1 > numJobs {
				numJobs = j + 1
			}
		}
	}
	if len(a.X) != len(a.Units) {
		return fmt.Errorf("core: X has %d rows, %d units", len(a.X), len(a.Units))
	}
	const tol = 1e-5
	for ui, row := range a.X {
		for j, x := range row {
			if x < -tol || x > 1+tol {
				return fmt.Errorf("core: X[%d][%d] = %v out of [0,1]", ui, j, x)
			}
		}
	}
	for m, f := range a.JobTimeFractions(numJobs) {
		if f > 1+tol {
			return fmt.Errorf("core: job %d time fraction %v > 1", m, f)
		}
	}
	if len(workers) > 0 {
		used := make([]float64, len(workers))
		for ui, row := range a.X {
			sf := a.Units[ui].scale(scaleFactors)
			for j, x := range row {
				used[j] += x * sf
			}
		}
		for j := range workers {
			if used[j] > workers[j]+tol*10 {
				return fmt.Errorf("core: type %d oversubscribed: %v > %v", j, used[j], workers[j])
			}
		}
	}
	return nil
}

// Program is a partially-built policy LP: variables X[u][j] wired with the
// standard validity constraints. Policies add their objective terms and any
// extra constraints, then Solve.
//
// A Program is reusable: Build lays out a new skeleton in the storage the
// last one grew (the LP's objective vector and term slab, the variable table,
// the column identities, the membership index), and Rewind drops everything
// a policy added on top of the skeleton, so a policy that solves a sequence
// of LPs over one input — max-min's refinement pass, the fairness binary
// search, water filling — builds the skeleton once. What a Program built
// before never changes what Build lays out, so policy.SolveContext lends each
// Allocate one, next to its lp.Workspace, from a process-wide free list.
type Program struct {
	P     *lp.Problem
	Units []Unit
	// XVar[u][j] is the LP variable index of X[u][j], or -1 when the unit
	// cannot run on type j (zero throughput for all members).
	XVar    [][]int
	numJobs int
	colIDs  []lp.ColumnID

	index MemberIndex
	xvars []int // XVar's backing slab
	// hom is the homogenizing column of a Charnes-Cooper layout (see
	// BuildHomogeneous), -1 on an ordinary program.
	hom int
	// baseVars/baseRows delimit the skeleton Rewind returns to.
	baseVars, baseRows int
	terms              []lp.Term // row and ThroughputTerms scratch
	homRow             []lp.Term // a homogenized row being assembled
	// ids holds the identities minted per unit key (see unitIDs).
	ids map[string]*unitIDs
}

// identities returns the LP identities of the given unit key over numTypes
// accelerator types, minting them on first sight.
func (pr *Program) identities(key string, numTypes int) *unitIDs {
	if ids, ok := pr.ids[key]; ok && len(ids.cols) == numTypes {
		return ids
	}
	if pr.ids == nil {
		pr.ids = map[string]*unitIDs{}
	}
	ids := newUnitIDs(key, numTypes)
	pr.ids[key] = ids
	return ids
}

// NewProgram builds the LP skeleton for the given units under the standard
// constraints (§3.1):
//
//	sum over units containing m, sum over j of X_uj           <= 1   per job m
//	sum over u of X_uj * scaleFactor(u)                       <= W_j per type j
//	X_uj >= 0 (implicit; the per-job budget bounds X_uj <= 1)
//
// scaleFactors is per *job*; a pair unit inherits the max of its members
// (in practice pairs are only formed between single-worker jobs).
func NewProgram(sense lp.Sense, units []Unit, scaleFactors []int, workers []float64) *Program {
	pr := new(Program)
	pr.Build(sense, units, scaleFactors, workers)
	return pr
}

// Build lays out the skeleton NewProgram documents in the program's own
// storage, discarding whatever it held.
func (pr *Program) Build(sense lp.Sense, units []Unit, scaleFactors []int, workers []float64) {
	pr.build(sense, units, scaleFactors, workers, false)
}

// BuildHomogeneous lays out the skeleton of a Charnes-Cooper transformed
// linear-fractional program over the same columns and rows: with y = t·X
// and t = 1/(denominator), every row a·X op b becomes a·y − b·t op 0. The
// homogenizing column t (identity lp.CharnesCooperID, whose doc states the
// transformation) follows the allocation columns, the skeleton rows carry
// their −b·t term, and AddRow homogenizes every row a policy adds. The
// caller supplies the numerator as the objective and closes the program with
// the normalization row (AddNormalization); a solution's allocation is y/t
// (ExtractRatio).
func (pr *Program) BuildHomogeneous(sense lp.Sense, units []Unit, scaleFactors []int, workers []float64) {
	pr.build(sense, units, scaleFactors, workers, true)
}

func (pr *Program) build(sense lp.Sense, units []Unit, scaleFactors []int, workers []float64, homogeneous bool) {
	if pr.P == nil {
		pr.P = lp.NewProblem(sense)
	} else {
		pr.P.Reset(sense)
	}
	p := pr.P
	numTypes := len(workers)
	pr.Units = units
	pr.index.Build(units)
	pr.numJobs = pr.index.NumJobs()
	pr.hom = -1

	// Identities of departed units would otherwise accumulate forever.
	if len(pr.ids) > 16*len(units)+4096 {
		clear(pr.ids)
	}
	if cap(pr.XVar) < len(units) {
		pr.XVar = make([][]int, len(units), len(units)+len(units)/4)
	}
	pr.XVar = pr.XVar[:len(units)]
	pr.xvars = grow(pr.xvars, len(units)*numTypes)
	xv := pr.XVar
	colIDs := pr.colIDs[:0]
	for ui := range units {
		u := &units[ui]
		xv[ui] = pr.xvars[ui*numTypes : (ui+1)*numTypes : (ui+1)*numTypes]
		// Columns are named by the unit's stable key so a basis survives
		// job arrivals/departures; unkeyed units fall back to positional
		// names, which only ever match a problem of identical layout.
		key := u.Key
		if key == "" {
			key = "u" + strconv.Itoa(ui)
		}
		ids := pr.identities(key, numTypes)
		for j := 0; j < numTypes; j++ {
			usable := false
			for k := range u.Jobs {
				if u.Tput[k][j] > 0 {
					usable = true
					break
				}
			}
			if usable {
				xv[ui][j] = p.AddVar(0, "x")
				colIDs = append(colIDs, ids.cols[j])
			} else {
				xv[ui][j] = -1
			}
		}
	}
	pr.colIDs = colIDs
	if homogeneous {
		pr.hom = pr.AddVar(0, string(lp.CharnesCooperID))
	}

	// Per-job time budget: sum over the job's units of sum_j X_uj <= 1.
	// Rows are labeled by the job's single-unit key so a cached basis can
	// pin this row's state back after the job set changes.
	for m := 0; m < pr.numJobs; m++ {
		terms := pr.terms[:0]
		jobUnits, _ := pr.index.Of(m)
		for _, ui := range jobUnits {
			for _, v := range xv[ui] {
				if v >= 0 {
					terms = append(terms, lp.Term{Var: v, Coeff: 1})
				}
			}
		}
		pr.terms = terms
		if len(terms) > 0 {
			// Label only under the documented layout (job m's single unit
			// at index m); any other arrangement gets an anonymous row
			// rather than a wrong identity.
			id := ""
			if m < len(units) && units[m].Key != "" &&
				len(units[m].Jobs) == 1 && units[m].Jobs[0] == m {
				id = pr.identities(units[m].Key, numTypes).budget
			}
			pr.AddRow(terms, lp.LE, 1, id)
		}
	}

	// Per-type worker capacity.
	for j := 0; j < numTypes; j++ {
		terms := pr.terms[:0]
		for ui := range units {
			if xv[ui][j] < 0 {
				continue
			}
			terms = append(terms, lp.Term{Var: xv[ui][j], Coeff: units[ui].scale(scaleFactors)})
		}
		pr.terms = terms
		if len(terms) > 0 {
			pr.AddRow(terms, lp.LE, workers[j], capacityRowID(j))
		}
	}
	pr.baseVars, pr.baseRows = p.NumVars(), p.NumConstraints()
}

// capacityRowIDs holds the identities of the first few capacity rows, so the
// usual three-type cluster formats none per build.
var capacityRowIDs = [...]string{"c:0", "c:1", "c:2", "c:3", "c:4", "c:5", "c:6", "c:7"}

func capacityRowID(j int) string {
	if j < len(capacityRowIDs) {
		return capacityRowIDs[j]
	}
	return "c:" + strconv.Itoa(j)
}

// Rewind drops every variable, row and objective coefficient added since the
// skeleton was built, returning the program to the state Build left it in.
func (pr *Program) Rewind() {
	pr.P.Truncate(pr.baseVars, pr.baseRows)
	pr.colIDs = pr.colIDs[:pr.baseVars]
}

// NumJobs returns the number of distinct jobs across the program's units.
func (pr *Program) NumJobs() int { return pr.numJobs }

// Homogenizer returns the LP index of a homogeneous program's t column, or
// -1 on an ordinary program.
func (pr *Program) Homogenizer() int { return pr.hom }

// Index returns the job → unit membership index of the program's units.
func (pr *Program) Index() *MemberIndex { return &pr.index }

// AddVar adds a policy variable (an objective scalar like the max-min floor
// t, or a per-job slack) with a stable column identity, and returns its LP
// index. Policies should derive per-job identities from external job IDs so
// the column survives reshuffles of the active set.
func (pr *Program) AddVar(objCoeff float64, id string) int {
	// Pad positional fallbacks for any variables added behind the
	// program's back first, so the identity lands on the right column
	// regardless of interleaving.
	pr.padColumnIDs()
	v := pr.P.AddVar(objCoeff, id)
	pr.colIDs = append(pr.colIDs, lp.ColumnID(id))
	return v
}

func (pr *Program) padColumnIDs() {
	for len(pr.colIDs) < pr.P.NumVars() {
		pr.colIDs = append(pr.colIDs, lp.ColumnID("v"+strconv.Itoa(len(pr.colIDs))))
	}
}

// AddRow adds a policy constraint with a stable row identity, so the row's
// basis state survives cross-shape remapping. Derive per-job identities from
// external job IDs (e.g. "r:<jobID>"), never positions. The terms are copied
// (the caller may reuse the slice, including ThroughputTerms' result). On a
// homogeneous program the row a·X op rhs is added as a·y − rhs·t op 0.
func (pr *Program) AddRow(terms []lp.Term, op lp.Op, rhs float64, id string) {
	if pr.hom < 0 {
		pr.P.AddConstraintRow(terms, op, rhs, id)
		return
	}
	pr.homRow = append(append(pr.homRow[:0], terms...), lp.Term{Var: pr.hom, Coeff: -rhs})
	pr.P.AddConstraintRow(pr.homRow, op, 0, id)
}

// AddNormalization closes a homogeneous program with the Charnes-Cooper
// normalization row den·y + denC·t = 1, den given per LP variable (zero
// entries are skipped).
func (pr *Program) AddNormalization(den []float64, denC float64) {
	terms := pr.terms[:0]
	for v, d := range den {
		if d != 0 {
			terms = append(terms, lp.Term{Var: v, Coeff: d})
		}
	}
	terms = append(terms, lp.Term{Var: pr.hom, Coeff: denC})
	pr.terms = terms
	pr.P.AddConstraintRow(terms, lp.EQ, 1, lp.CharnesCooperRowID)
}

// ColumnIDs returns the stable identity of every LP variable, in variable
// order: allocation columns as "<unitKey>@<type>", policy variables as the
// names they were added with. Variables added behind the program's back
// (directly on pr.P) get positional fallbacks, which disables cross-shape
// reuse for them but never affects correctness. The slice is the program's
// own and is overwritten by the next Build.
func (pr *Program) ColumnIDs() []lp.ColumnID {
	pr.padColumnIDs()
	return pr.colIDs
}

// ThroughputTerms returns LP terms expressing throughput(m, X) scaled by
// factor: factor * sum over units u containing m of T(u,m,j) * X_uj, in
// ascending unit then type order. The slice is the program's scratch — valid
// until the next ThroughputTerms or Build — with room to append two more.
func (pr *Program) ThroughputTerms(job int, factor float64) []lp.Term {
	terms := pr.terms[:0]
	jobUnits, slots := pr.index.Of(job)
	for i, ui := range jobUnits {
		tput := pr.Units[ui].Tput[slots[i]]
		for j, v := range pr.XVar[ui] {
			if v >= 0 && tput[j] > 0 {
				terms = append(terms, lp.Term{Var: v, Coeff: factor * tput[j]})
			}
		}
	}
	// Callers append a term or two (the max-min floor, a slack) before
	// AddRow; keep room so that never reallocates the scratch away.
	terms = slices.Grow(terms, 2)
	pr.terms = terms
	return terms
}

// Extract converts an LP solution vector into an Allocation, clamping tiny
// negative noise to zero. The allocation owns its X (one slab, not shared
// with the program), so it outlives the next Build.
func (pr *Program) Extract(x []float64) *Allocation {
	return pr.extract(nil, x, 1)
}

// ExtractRatio converts the solution of a homogeneous program into an
// Allocation: X = y / t with t the homogenizing column's value.
func (pr *Program) ExtractRatio(x []float64) *Allocation {
	return pr.extract(nil, x, x[pr.hom])
}

// ExtractInto is Extract (ExtractRatio on a homogeneous program) written
// into dst, reusing its X storage, and returns dst. What dst held before is
// overwritten, so its holder must be done with that allocation. A nil dst
// allocates.
func (pr *Program) ExtractInto(dst *Allocation, x []float64) *Allocation {
	t := 1.0
	if pr.hom >= 0 {
		t = x[pr.hom]
	}
	return pr.extract(dst, x, t)
}

func (pr *Program) extract(dst *Allocation, x []float64, t float64) *Allocation {
	numTypes := 0
	if len(pr.XVar) > 0 {
		numTypes = len(pr.XVar[0])
	}
	if dst == nil {
		dst = new(Allocation)
	}
	X := grow(dst.X, len(pr.Units))
	slab := grow(dst.slab, len(pr.Units)*numTypes)
	clear(slab)
	for ui := range pr.Units {
		X[ui] = slab[ui*numTypes : (ui+1)*numTypes : (ui+1)*numTypes]
		for j, v := range pr.XVar[ui] {
			if v < 0 {
				continue
			}
			val := x[v]
			if pr.hom >= 0 {
				val /= t
			}
			if val < 0 {
				val = 0
			}
			if val > 1 {
				val = 1
			}
			X[ui][j] = val
		}
	}
	*dst = Allocation{Units: pr.Units, X: X, slab: slab}
	return dst
}

// EqualShareThroughput returns throughput(m, X^equal): the effective
// throughput job m (as a single-job unit with throughputs tput) would see
// under the allocation that gives it time on each type proportional to that
// type's share of the cluster (§4.1). Used to normalize fairness
// objectives so they are comparable across jobs.
func EqualShareThroughput(tput []float64, workers []float64) float64 {
	total := 0.0
	for _, w := range workers {
		total += w
	}
	if total == 0 {
		return 0
	}
	var s float64
	for j, w := range workers {
		s += tput[j] * (w / total)
	}
	return s
}

// MaxThroughput returns max_j tput[j] (throughput on the fastest type for
// this job; the FIFO policy's normalizer).
func MaxThroughput(tput []float64) float64 {
	m := 0.0
	for _, t := range tput {
		if t > m {
			m = t
		}
	}
	return m
}

// Finite reports whether v is a usable throughput (not NaN/Inf, > 0).
func Finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v > 0
}
