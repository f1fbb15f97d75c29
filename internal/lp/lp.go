// Package lp is the linear-program solver every Gavel policy runs on: the Go
// standard library has none, and each scheduling policy is one or more LPs.
// It is the substrate for internal/policy and internal/milp.
//
// The solver handles problems of the form
//
//	minimize / maximize  c . x
//	subject to           a_i . x  (<= | >= | =)  b_i
//	                     x >= 0
//
// All variables are implicitly non-negative. Upper bounds (e.g. X_mj <= 1)
// are written as ordinary singleton rows; presolve turns them into implicit
// bounds the engine enforces without a row.
//
// There is one solve path and nothing to select: presolve (presolve.go)
// shrinks the problem, the sparse bounded-variable revised simplex
// (revised.go, with the dual simplex of dual.go repairing warm seeds) solves
// it, and postsolve lifts the answer back. The engine returns an optimum only
// after refactorizing the final basis and re-checking primal feasibility and
// reduced-cost signs on the fresh factors (revEngine.optimize). When it
// reports that it could not verify one, the raw problem is re-solved cold
// without presolve (Result.Recovered); if that fails too the caller gets
// ErrNumerical — never an unverified Result.
package lp

import (
	"errors"
	"fmt"
)

// Sense selects minimization or maximization of the objective.
type Sense int

const (
	Minimize Sense = iota
	Maximize
)

// Op is a constraint comparison operator.
type Op int

const (
	LE Op = iota // a.x <= b
	GE           // a.x >= b
	EQ           // a.x == b
)

func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return "?"
}

// Status reports the outcome of a solve.
type Status int

const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterationLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration-limit"
	}
	return "unknown"
}

// Term is a single coefficient on a variable in a constraint or objective.
type Term struct {
	Var   int
	Coeff float64
}

type constraint struct {
	terms []Term // a window of Problem.terms, never a slice of its own
	op    Op
	rhs   float64
	id    string // stable row identity for cross-shape basis remapping; "" = anonymous
}

// Problem is a linear program under construction. The zero value is not
// usable; create one with NewProblem.
type Problem struct {
	sense Sense
	obj   []float64
	// terms is the slab every row's terms live in, back to back in row
	// order: adding a row copies its terms here instead of allocating a
	// slice per row, and Reset/Truncate reuse the slab for the next program.
	terms []Term
	cons  []constraint
	ws    *Workspace
	// ub holds per-variable upper bounds on problems produced by presolve
	// (bound rows extracted into implicit bounds); nil on user-built
	// problems, whose bounds stay explicit rows. Entries are +Inf when
	// unbounded.
	ub []float64
	// noPresolve marks internally built reduced problems so the solve never
	// presolves a presolved problem; noDual keeps seeded solves off the dual
	// simplex. Beyond that, both are set only from _test.go files, whose
	// equivalence fuzzes use the raw and primal-only solves as references.
	noPresolve, noDual bool
}

// NewProblem returns an empty problem with the given objective sense.
func NewProblem(sense Sense) *Problem {
	return &Problem{sense: sense}
}

// SetWorkspace attaches the arena this problem's solves run
// in (see Workspace for exactly what it owns, and what it lends: X). A caller
// solving in a loop — SolveContext, the simulator — attaches the same arena
// to every problem, and a steady-state solve then allocates only the Result
// and the Basis snapshot. Without one, each solve builds a private arena and
// drops it. A Workspace is not safe for concurrent solves.
func (p *Problem) SetWorkspace(ws *Workspace) { p.ws = ws }

// Reset empties the problem for reuse under a new objective sense, keeping
// the storage it has grown (objective vector, term slab, row table) and
// detaching the workspace.
func (p *Problem) Reset(sense Sense) {
	*p = Problem{sense: sense, obj: p.obj[:0], terms: p.terms[:0], cons: p.cons[:0]}
}

// Truncate drops every variable from index numVars on and every constraint
// from index numRows on, and zeroes the remaining objective: a program whose
// first columns and rows are a fixed skeleton (core.Program) rewinds to it
// instead of being rebuilt. Rows are only ever appended, so the surviving
// rows' terms are exactly the slab's first entries.
func (p *Problem) Truncate(numVars, numRows int) {
	p.obj = p.obj[:numVars]
	for j := range p.obj {
		p.obj[j] = 0
	}
	nt := 0
	for _, c := range p.cons[:numRows] {
		nt += len(c.terms)
	}
	p.cons = p.cons[:numRows]
	p.terms = p.terms[:nt]
}

// NumVars returns the number of variables added so far.
func (p *Problem) NumVars() int { return len(p.obj) }

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.cons) }

// Row returns constraint i as it was added: its terms (a read-only view of
// the problem's storage), operator, right-hand side and row identity.
func (p *Problem) Row(i int) (terms []Term, op Op, rhs float64, id string) {
	c := &p.cons[i]
	return c.terms, c.op, c.rhs, c.id
}

// AddVar adds a non-negative variable with the given objective coefficient
// and returns its index. The name documents the call site only; the problem
// does not keep it (stable identities are ColumnIDs, held by the caller).
func (p *Problem) AddVar(objCoeff float64, name string) int {
	p.obj = append(p.obj, objCoeff)
	return len(p.obj) - 1
}

// SetObj overrides the objective coefficient of variable v.
func (p *Problem) SetObj(v int, coeff float64) { p.obj[v] = coeff }

// AddObj accumulates delta into the objective coefficient of variable v.
func (p *Problem) AddObj(v int, delta float64) { p.obj[v] += delta }

// ObjCoeff returns the current objective coefficient of variable v.
func (p *Problem) ObjCoeff(v int) float64 { return p.obj[v] }

// AddConstraint adds the constraint sum(terms) op rhs. Terms referencing the
// same variable are accumulated. The terms are copied into the problem's
// slab, so the caller may reuse its slice.
func (p *Problem) AddConstraint(terms []Term, op Op, rhs float64) {
	start := len(p.terms)
	p.terms = append(p.terms, terms...)
	// A full slice expression: the row's window must never be appended
	// through. When the slab reallocates, earlier rows keep their (still
	// valid, never rewritten) windows of the old backing array.
	p.cons = append(p.cons, constraint{terms: p.terms[start:len(p.terms):len(p.terms)], op: op, rhs: rhs})
}

// AddConstraintRow adds the constraint sum(terms) op rhs with a stable row
// identity. Row identities let Basis.Remap carry a row's state — which
// column its old counterpart hosted, and whether its slack was basic —
// across problems whose constraint sets differ (job arrival/departure), so
// the remapped seed reproduces the old vertex almost exactly instead of
// guessing. IDs must be unique within one problem; the empty ID is
// anonymous and never matches.
func (p *Problem) AddConstraintRow(terms []Term, op Op, rhs float64, id string) {
	p.AddConstraint(terms, op, rhs)
	p.cons[len(p.cons)-1].id = id
}

// Result holds the outcome of Solve.
type Result struct {
	Status Status
	// X is the solution, lent from the problem's workspace: valid until the
	// workspace's next solve (see Workspace).
	X          []float64
	Objective  float64
	Iterations int // simplex iterations across both phases
	Pivots     int // basis changes performed
	// Basis snapshots the optimal basis for warm-starting a subsequent
	// solve of a same-shaped problem via SolveFrom; nil unless Optimal.
	Basis *Basis
	// WarmStarted reports whether this solve was seeded from a previous
	// basis (false when SolveFrom fell back to the cold two-phase path).
	WarmStarted bool
	// Remapped reports whether the seed came from a basis remapped across a
	// shape change (SolveFromMapped); implies WarmStarted.
	Remapped bool
	// Recovered reports that the first attempt could not verify an answer
	// and this one comes from the raw cold re-solve (see Problem.Solve).
	Recovered bool
	// PresolveReductions counts the presolve pass's reductions on this
	// solve: rows removed, columns fixed, and bounds extracted or
	// tightened. Zero when presolve found nothing or was disabled.
	PresolveReductions int
	// DualIterations counts simplex iterations performed by the dual
	// simplex repair of a warm-started basis; those iterations are also
	// included in Iterations.
	DualIterations int
	// Refactorizations counts basis LU refactorizations the engine
	// performed after its initial factorization (eta-file resets and
	// post-polish refreshes).
	Refactorizations int
}

// Basis is an opaque snapshot of a simplex basis, tied to the shape of the
// problem that produced it: the structural variable count and the
// (normalized) constraint operator sequence, which together fix the
// slack-column layout. SolveFrom rejects a basis whose shape does not match
// the problem being solved and falls back to a cold solve.
type Basis struct {
	numVars int
	ops     []Op     // normalized (rhs >= 0) constraint ops, in order
	cols    []int    // basic column per row; -1 for dropped redundant rows
	rowIDs  []string // stable row identities ("" = anonymous), in order
	// atUpper lists structural variables that are nonbasic at their
	// presolve-derived upper bound (ascending). A bounded-variable vertex
	// is (basis, bound-status) jointly; without this list a seeded solve
	// would place every nonbasic variable at zero and have to repair the
	// difference.
	atUpper []int
	// polished marks a basis that reproduces the engine's
	// canonical (vertex-polished) optimum and is dual feasible, so a
	// seeded re-solve that needs no pivots can skip re-canonicalizing.
	polished bool
}

// NumVars returns the structural variable count the basis was built for.
func (b *Basis) NumVars() int { return b.numVars }

// NumRows returns the constraint-row count the basis was built for.
func (b *Basis) NumRows() int {
	if b == nil {
		return 0
	}
	return len(b.ops)
}

// Clone returns an independent deep copy of the basis. Solvers never mutate
// a snapshot they were seeded from, but a clone is what lets two solve
// contexts — e.g. the source and destination shards of a job migration —
// hold the same seed without sharing any state across goroutines. Cloning
// nil yields nil.
func (b *Basis) Clone() *Basis {
	if b == nil {
		return nil
	}
	return &Basis{
		numVars:  b.numVars,
		ops:      append([]Op(nil), b.ops...),
		cols:     append([]int(nil), b.cols...),
		rowIDs:   append([]string(nil), b.rowIDs...),
		atUpper:  append([]int(nil), b.atUpper...),
		polished: b.polished,
	}
}

// ColumnID is a stable, caller-chosen identity for a structural variable,
// used to carry a basis across problems whose variable sets differ (job
// arrival/departure in Gavel's allocation LPs). Callers must keep IDs unique
// within one problem; the empty ID never matches anything.
type ColumnID string

// MappedBasis is a shape-independent projection of a Basis onto a new
// column universe: the basic structural columns whose identities survive the
// job-set change (expressed as indices into the target problem, each with
// the identity of the row that hosted it), plus the identities of the rows
// whose slack column was basic. Build one with Basis.Remap and solve with
// Problem.SolveFromMapped. Departed structural columns are dropped; the
// mapped solve pins every surviving column and slack back to its old row
// where possible, completes the rest greedily, and repairs any lost primal
// feasibility with a phase-1-lite pass over just the violated rows — so a
// mapping can only change speed, never the solution.
type MappedBasis struct {
	numVars   int      // structural variable count of the target problem
	cands     []int    // surviving basic structural columns (target indices)
	candRows  []string // parallel: identity of the old host row ("" = greedy)
	slackRows []string // identities of rows whose own slack was basic
	uppers    []int    // surviving nonbasic-at-upper columns (target indices)
}

// NumCandidates returns how many columns survived the remap with their basis
// status intact: basic structural columns plus nonbasic-at-upper columns (a
// job pinned at its cap carries just as much warm-start information as a
// basic one).
func (mb *MappedBasis) NumCandidates() int {
	if mb == nil {
		return 0
	}
	return len(mb.cands) + len(mb.uppers)
}

// Remap projects the basis onto a problem with a different column set.
// oldCols names the structural variables of the problem that produced b (in
// variable order, len == b.NumVars()); newCols names the target problem's
// variables. Basic structural columns whose ID appears in newCols survive
// (departing jobs' columns are dropped); basic slacks are dropped — the
// mapped solve re-derives them from the target's own constraint rows.
// Returns nil when b is nil or oldCols does not match b's shape; a nil
// MappedBasis makes SolveFromMapped run the cold path.
func (b *Basis) Remap(oldCols, newCols []ColumnID) *MappedBasis {
	return b.RemapIn(new(Workspace), oldCols, newCols)
}

// RemapIn is Remap with its lookup tables and the returned MappedBasis held
// in ws: a caller remapping once per reset (policy.SolveContext) pays no
// allocation for it. The result is valid until the next RemapIn on ws.
func (b *Basis) RemapIn(ws *Workspace, oldCols, newCols []ColumnID) *MappedBasis {
	if b == nil || len(oldCols) != b.numVars {
		return nil
	}
	sa := &ws.seed
	if sa.colAt == nil {
		sa.colAt = make(map[ColumnID]int, len(newCols))
	}
	idx := sa.colAt
	clear(idx)
	for j, id := range newCols {
		if id != "" {
			idx[id] = j
		}
	}
	// Reconstruct which row each slack column belongs to (slack indices are
	// assigned in row order over the LE/GE rows).
	slackOwner := sa.slackOwner[:0]
	for i, op := range b.ops {
		if op == LE || op == GE {
			slackOwner = append(slackOwner, i)
		}
	}
	sa.slackOwner = slackOwner
	rowID := func(i int) string {
		if i < len(b.rowIDs) {
			return b.rowIDs[i]
		}
		return ""
	}
	sa.seen = grow(sa.seen, len(newCols))
	seen := sa.seen
	for j := range seen {
		seen[j] = false
	}
	mb := &sa.mapped
	*mb = MappedBasis{
		numVars: len(newCols),
		cands:   mb.cands[:0], candRows: mb.candRows[:0],
		slackRows: mb.slackRows[:0], uppers: mb.uppers[:0],
	}
	for hostRow, c := range b.cols {
		switch {
		case c < 0:
			// Dropped redundant row: nothing to carry.
		case c < b.numVars:
			if j, ok := idx[oldCols[c]]; ok && !seen[j] {
				seen[j] = true
				mb.cands = append(mb.cands, j)
				mb.candRows = append(mb.candRows, rowID(hostRow))
			}
		default:
			// Basic slack: carry the identity of the row OWNING the slack
			// (the non-binding constraint), not the row hosting it — the
			// basic set, not the hosting assignment, determines the vertex.
			if k := c - b.numVars; k < len(slackOwner) {
				if id := rowID(slackOwner[k]); id != "" {
					mb.slackRows = append(mb.slackRows, id)
				}
			}
		}
	}
	// Nonbasic-at-upper survivors keep their bound status so the mapped
	// vertex starts as close to the old one as the new bounds allow.
	for _, c := range b.atUpper {
		if c < 0 || c >= len(oldCols) {
			continue
		}
		if j, ok := idx[oldCols[c]]; ok && !seen[j] {
			mb.uppers = append(mb.uppers, j)
		}
	}
	return mb
}

// compatible reports whether the basis can seed a problem with the given
// structural variable count and normalized op sequence.
func (b *Basis) compatible(n int, ops []Op) bool {
	if b == nil || b.numVars != n || len(b.ops) != len(ops) {
		return false
	}
	for i, op := range ops {
		if b.ops[i] != op {
			return false
		}
	}
	return true
}

// ErrBadProblem reports a structurally invalid problem (e.g. a term
// referencing an unknown variable).
var ErrBadProblem = errors.New("lp: malformed problem")

// ErrNumerical reports that neither the solve nor its raw cold re-solve
// reached an answer the engine could verify on fresh factors. It is the only
// way a well-formed problem yields no Result.
var ErrNumerical = errors.New("lp: no verified answer")

const (
	eps = 1e-9
	// stallFactor * (rows+cols) iterations before pricing switches to Bland's
	// rule; hardFactor * (rows+cols) before giving up entirely.
	stallFactor = 20
	hardFactor  = 400
)

// Solve solves the problem cold. Infeasibility and unboundedness are
// reported via Result.Status; the error is ErrBadProblem for a malformed
// problem and ErrNumerical when no answer could be verified, and the Result
// is nil with either.
func (p *Problem) Solve() (*Result, error) { return p.solve(nil, nil) }

// SolveFrom solves the problem seeded from a previous optimal basis,
// skipping phase 1 entirely when the basis is still primal feasible. The
// basis must come from a problem of the same shape (variable count and
// constraint operator sequence); on a shape mismatch, a singular or
// primal-infeasible seed, or numerical trouble, it falls back to the cold
// two-phase path. Result.WarmStarted reports which path ran.
func (p *Problem) SolveFrom(prev *Basis) (*Result, error) { return p.solve(prev, nil) }

// SolveFromMapped solves the problem seeded from a basis remapped across a
// shape change (Basis.Remap): surviving slacks and structural columns are
// pinned to the rows that hosted them, every remaining row is completed with
// its own slack or an artificial, and lost primal feasibility is repaired by
// the dual simplex or the composite phase 1. An unusable mapping (nil, no
// surviving columns, singular seed, iteration cap) falls back to the cold
// two-phase path, so correctness never depends on the mapping.
// Result.Remapped reports whether the mapped seed was used.
func (p *Problem) SolveFromMapped(mb *MappedBasis) (*Result, error) { return p.solve(nil, mb) }

func (p *Problem) solve(prev *Basis, mapped *MappedBasis) (*Result, error) {
	n := len(p.obj)
	for _, c := range p.cons {
		for _, t := range c.terms {
			if t.Var < 0 || t.Var >= n {
				return nil, fmt.Errorf("%w: term references variable %d of %d", ErrBadProblem, t.Var, n)
			}
		}
	}
	if len(p.cons) == 0 {
		return p.solveNoRows(), nil
	}
	if p.ws == nil {
		// No caller-supplied arena: this solve gets a private one (presolve
		// and the engine have no other place to work).
		p.ws = new(Workspace)
		defer func() { p.ws = nil }()
	}
	if res, ok := p.attempt(prev, mapped, !p.noPresolve); ok {
		return res, nil
	}
	// The engine hit something it could not verify — a singular factorization
	// repair could not fix, a stuck pivot, a verification loop that did not
	// converge. Recover on the raw problem, cold: no reduction and no seed
	// the first attempt may have tripped on.
	res, ok := p.attempt(nil, nil, false)
	if !ok {
		return nil, fmt.Errorf("%w (%d variables, %d rows)", ErrNumerical, n, len(p.cons))
	}
	res.Recovered = true
	return res, nil
}

// attempt is one pass of the engine: over the presolved problem when
// presolve is asked for and finds something to remove, over the raw one
// otherwise. ok=false means the engine could not verify an answer.
func (p *Problem) attempt(prev *Basis, mapped *MappedBasis, presolve bool) (*Result, bool) {
	if p.ws.passNext > 0 {
		p.ws.passNext--
	} else if p.ws.failNext > 0 {
		p.ws.failNext--
		return nil, false
	}
	if presolve {
		if ps := newPresolve(p); ps != nil {
			return ps.run(prev, mapped)
		}
	}
	res, ok := p.solveRevised(prev, mapped)
	if !ok {
		return nil, false
	}
	return p.own(res), true
}

// solveNoRows is the closed form of a problem without constraints, which the
// engine (a basis has one column per row) does not model: every variable
// rests at zero, unless some cost rewards growing one without limit.
func (p *Problem) solveNoRows() *Result {
	for _, c := range p.obj {
		if (p.sense == Minimize && c < -eps) || (p.sense == Maximize && c > eps) {
			return &Result{Status: Unbounded}
		}
	}
	return &Result{Status: Optimal, X: make([]float64, len(p.obj)), Basis: p.snapshotBasis(new(Basis), nil, nil)}
}

// snapshotBasis records a final basis for warm starts into dst, stamping it
// with the problem's row identities. A row whose artificial never left the
// basis (a redundant constraint) carries the entry -1.
func (p *Problem) snapshotBasis(dst *Basis, ops []Op, basis []int) *Basis {
	ids := grow(dst.rowIDs, len(p.cons))
	for i, c := range p.cons {
		ids[i] = c.id
	}
	*dst = Basis{
		numVars: len(p.obj),
		ops:     append(dst.ops[:0], ops...),
		cols:    append(dst.cols[:0], basis...),
		rowIDs:  ids,
		atUpper: dst.atUpper[:0],
	}
	return dst
}
