// Package lp implements a dense two-phase primal simplex linear-program
// solver. It exists because Gavel expresses every scheduling policy as one or
// more linear programs, and the Go ecosystem has no standard-library LP
// solver; this package is the substrate for internal/policy and internal/milp.
//
// The solver handles problems of the form
//
//	minimize / maximize  c . x
//	subject to           a_i . x  (<= | >= | =)  b_i
//	                     x >= 0
//
// All variables are implicitly non-negative. Upper bounds (e.g. X_mj <= 1)
// should be expressed as explicit constraints when they are not already
// implied by aggregate constraints; Gavel's allocation programs imply them
// via the per-job time budget, so in practice few are needed.
//
// The implementation is a textbook tableau simplex: Dantzig (most negative
// reduced cost) pivoting with a switch to Bland's rule after a stall
// threshold to guarantee termination on degenerate programs, which the
// max-min fairness LPs frequently are.
package lp

import (
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
)

// Engine selects the simplex implementation a Problem solves with.
type Engine int

const (
	// EngineAuto (the zero value) follows DefaultEngine.
	EngineAuto Engine = iota
	// Dense is the textbook two-phase tableau simplex: O(m·n) per pivot,
	// O(m·n) memory. It is kept as the reference oracle for the revised
	// engine and as the fallback when a factorization goes singular.
	Dense
	// Revised is the sparse revised simplex engine (revised.go): CSC
	// constraint storage, LU-factorized basis with eta updates, partial
	// pricing over sparse reduced costs. O(nnz + m) per pivot.
	Revised
)

func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case Dense:
		return "dense"
	case Revised:
		return "revised"
	}
	return "unknown"
}

// DefaultEngine is the engine used by problems with no explicit engine set
// (SetEngine(EngineAuto)). It is initialized from GAVEL_LP_ENGINE ("dense"
// or "revised"); unset or unrecognized values select Revised.
var DefaultEngine = engineFromEnv()

func engineFromEnv() Engine {
	if strings.EqualFold(os.Getenv("GAVEL_LP_ENGINE"), "dense") {
		return Dense
	}
	return Revised
}

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
	terms   []Term
	cons    []constraint
	engine  Engine
	pricing Pricing
	presolv PresolveMode
	dual    DualMode
	ws      *Workspace
	// ub holds per-variable upper bounds on problems produced by presolve
	// (bound rows extracted into implicit bounds); nil on user-built
	// problems, whose bounds stay explicit rows. Entries are +Inf when
	// unbounded. Only the revised engine consumes it.
	ub []float64
	// noPresolve marks internally built reduced problems so the solve
	// dispatch never presolves a presolved problem.
	noPresolve bool
}

// NewProblem returns an empty problem with the given objective sense.
func NewProblem(sense Sense) *Problem {
	return &Problem{sense: sense}
}

// SetEngine selects the simplex implementation for this problem;
// EngineAuto (the default) follows the package-level DefaultEngine.
func (p *Problem) SetEngine(e Engine) { p.engine = e }

// SetPricing selects the revised engine's pricing rule for this problem;
// PricingAuto (the default) follows the package-level DefaultPricing.
func (p *Problem) SetPricing(r Pricing) { p.pricing = r }

// SetPresolve selects whether the solve runs the presolve pass;
// PresolveAuto (the default) follows the package-level DefaultPresolve.
func (p *Problem) SetPresolve(m PresolveMode) { p.presolv = m }

// SetDual selects whether seeded revised solves may repair primal
// infeasibility with the dual simplex; DualAuto (the default) follows the
// package-level DefaultDual.
func (p *Problem) SetDual(m DualMode) { p.dual = m }

// SetWorkspace attaches the arena this problem's revised-engine solves run
// in (see Workspace for exactly what it owns). A caller solving in a loop —
// SolveContext, the simulator — attaches the same arena to every problem, and
// a steady-state solve then allocates only what it returns: the Result, its
// X, and the Basis snapshot. Without one, each solve builds a private arena
// and drops it. A Workspace is not safe for concurrent solves.
func (p *Problem) SetWorkspace(ws *Workspace) { p.ws = ws }

// Reset empties the problem for reuse under a new objective sense, keeping
// the storage it has grown (objective vector, term slab, row table) and
// clearing every solver knob and the attached workspace.
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

// resolveEngine returns the engine this problem will actually solve with.
func (p *Problem) resolveEngine() Engine {
	e := p.engine
	if e == EngineAuto {
		e = DefaultEngine
	}
	if e != Dense {
		e = Revised
	}
	return e
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
	Status     Status
	X          []float64
	Objective  float64
	Iterations int // simplex iterations across both phases
	Pivots     int // tableau pivot operations performed
	// Basis snapshots the optimal basis for warm-starting a subsequent
	// solve of a same-shaped problem via SolveFrom; nil unless Optimal.
	Basis *Basis
	// WarmStarted reports whether this solve was seeded from a previous
	// basis (false when SolveFrom fell back to the cold two-phase path).
	WarmStarted bool
	// Remapped reports whether the seed came from a basis remapped across a
	// shape change (SolveFromMapped); implies WarmStarted.
	Remapped bool
	// Engine reports which simplex implementation produced this result;
	// Dense when the revised engine was selected but fell back.
	Engine Engine
	// PresolveReductions counts the presolve pass's reductions on this
	// solve: rows removed, columns fixed, and bounds extracted or
	// tightened. Zero when presolve found nothing or was disabled.
	PresolveReductions int
	// DualIterations counts simplex iterations performed by the dual
	// simplex repair of a warm-started basis; those iterations are also
	// included in Iterations.
	DualIterations int
	// Refactorizations counts basis LU refactorizations the revised
	// engine performed after its initial factorization (eta-file resets
	// and post-polish refreshes). Always zero on the dense path.
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
	// difference. Engines without bound support ignore it.
	atUpper []int
	// polished marks a basis that reproduces the revised engine's
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

const (
	eps = 1e-9
	// stallFactor * (rows+cols) Dantzig iterations before switching to
	// Bland's rule; hardFactor * (rows+cols) before giving up entirely.
	stallFactor = 20
	hardFactor  = 400
)

// Solve runs two-phase primal simplex and returns the result. The returned
// error is non-nil only for malformed problems; infeasibility and
// unboundedness are reported via Result.Status.
func (p *Problem) Solve() (*Result, error) { return p.solve(nil, nil) }

// SolveFrom solves the problem seeded from a previous optimal basis,
// skipping phase 1 entirely when the basis is still primal feasible. The
// basis must come from a problem of the same shape (variable count and
// constraint operator sequence); on a shape mismatch, a singular or
// primal-infeasible seed, or numerical trouble, it falls back to the cold
// two-phase path. Result.WarmStarted reports which path ran.
func (p *Problem) SolveFrom(prev *Basis) (*Result, error) { return p.solve(prev, nil) }

// SolveFromMapped solves the problem seeded from a basis remapped across a
// shape change (Basis.Remap): surviving structural columns are made basic
// first, every remaining row is completed with its own slack, and lost
// primal feasibility is repaired with dual simplex pivots before the primal
// cleanup. An unusable mapping (nil, no surviving columns, singular seed,
// unrepairable row, iteration cap) falls back to the cold two-phase path, so
// correctness never depends on the mapping. Result.Remapped reports whether
// the mapped seed was used.
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
	engine := p.resolveEngine()
	if p.ws == nil {
		// No caller-supplied arena: this solve gets a private one (presolve
		// and the revised engine have no other place to work).
		p.ws = new(Workspace)
		defer func() { p.ws = nil }()
	}
	if !p.noPresolve && p.resolvePresolve() == PresolveOn {
		if ps := newPresolve(p, engine == Revised); ps != nil {
			if res, ok := ps.run(prev, mapped, engine); ok {
				return res, nil
			}
			// The presolved path could not certify its answer (the reduced
			// solve bailed); retry on the raw problem below — with explicit
			// bound rows back in place, so the dense oracle needs no bound
			// support.
		}
	}
	if engine == Revised {
		if res, ok := p.solveRevised(prev, mapped); ok {
			res.Engine = Revised
			return p.own(res), nil
		}
		// The revised engine hit something it cannot certify — a singular
		// factorization repair could not fix, a stuck pivot, a verification
		// loop that failed to converge. The dense tableau is the oracle of
		// last resort, so selecting Revised changes only speed, never
		// correctness.
	}
	res, err := p.solveDense(prev, mapped)
	if res != nil {
		res.Engine = Dense
	}
	return res, err
}

// solveDense is the original dense-tableau two-phase simplex path.
func (p *Problem) solveDense(prev *Basis, mapped *MappedBasis) (*Result, error) {
	n := len(p.obj)
	m := len(p.cons)

	// Normalize rows so rhs >= 0 and count auxiliary columns.
	rows := make([][]float64, m)
	ops := make([]Op, m)
	rhs := make([]float64, m)
	nSlack, nArt := 0, 0
	for i, c := range p.cons {
		row := make([]float64, n)
		for _, t := range c.terms {
			row[t.Var] += t.Coeff
		}
		b := c.rhs
		op := c.op
		if b < 0 {
			for j := range row {
				row[j] = -row[j]
			}
			b = -b
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		rows[i], ops[i], rhs[i] = row, op, b
		switch op {
		case LE:
			nSlack++
		case GE:
			nSlack++ // surplus
			nArt++
		case EQ:
			nArt++
		}
	}

	if prev.compatible(n, ops) {
		if res, ok := p.warmSolve(rows, rhs, nSlack, prev); ok {
			return res, nil
		}
	} else if mapped != nil && mapped.numVars == n && len(mapped.cands) > 0 {
		if res, ok := p.mappedSolve(rows, ops, rhs, nSlack, mapped); ok {
			return res, nil
		}
	}

	total := n + nSlack + nArt
	// tab is the m x (total+1) tableau; last column is the rhs.
	tab := make([][]float64, m)
	basis := make([]int, m)
	slackAt, artAt := n, n+nSlack
	artCols := make([]int, 0, nArt)
	for i := 0; i < m; i++ {
		r := make([]float64, total+1)
		copy(r, rows[i])
		r[total] = rhs[i]
		switch ops[i] {
		case LE:
			r[slackAt] = 1
			basis[i] = slackAt
			slackAt++
		case GE:
			r[slackAt] = -1
			slackAt++
			r[artAt] = 1
			basis[i] = artAt
			artCols = append(artCols, artAt)
			artAt++
		case EQ:
			r[artAt] = 1
			basis[i] = artAt
			artCols = append(artCols, artAt)
			artAt++
		}
		tab[i] = r
	}

	iterations := 0
	pivots := 0

	// Phase 1: drive artificials to zero.
	if nArt > 0 {
		cost := make([]float64, total+1)
		for _, j := range artCols {
			cost[j] = 1
		}
		canonicalize(cost, tab, basis)
		st, it := simplexIterate(tab, basis, cost, nil)
		iterations += it
		pivots += it
		if st == Unbounded {
			// Phase-1 objective is bounded below by 0; unbounded here
			// means numerical trouble. Treat as infeasible.
			return &Result{Status: Infeasible, Iterations: iterations, Pivots: pivots}, nil
		}
		if st == IterationLimit {
			return &Result{Status: IterationLimit, Iterations: iterations, Pivots: pivots}, nil
		}
		if -cost[total] > 1e-7 {
			return &Result{Status: Infeasible, Iterations: iterations, Pivots: pivots}, nil
		}
		// Drive remaining basic artificials out or drop their rows.
		isArt := make([]bool, total)
		for _, j := range artCols {
			isArt[j] = true
		}
		for i := 0; i < m; i++ {
			if !isArt[basis[i]] {
				continue
			}
			pivoted := false
			for j := 0; j < n+nSlack; j++ {
				if math.Abs(tab[i][j]) > eps {
					pivot(tab, basis, i, j)
					pivots++
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row: zero it so it never constrains again.
				for j := range tab[i] {
					tab[i][j] = 0
				}
				basis[i] = -1
			}
		}
		// Forbid artificial columns from ever re-entering.
		for i := range tab {
			for _, j := range artCols {
				tab[i][j] = 0
			}
		}
	}

	// Phase 2 cost vector (internally minimize).
	cost := make([]float64, total+1)
	for j := 0; j < n; j++ {
		if p.sense == Maximize {
			cost[j] = -p.obj[j]
		} else {
			cost[j] = p.obj[j]
		}
	}
	forbidden := make([]bool, total)
	for _, j := range artCols {
		forbidden[j] = true
	}
	canonicalize(cost, tab, basis)
	st, it := simplexIterate(tab, basis, cost, forbidden)
	iterations += it
	pivots += it
	if st != Optimal {
		return &Result{Status: st, Iterations: iterations, Pivots: pivots}, nil
	}

	x := make([]float64, n)
	for i, b := range basis {
		if b >= 0 && b < n {
			x[b] = tab[i][total]
		}
	}
	obj := 0.0
	for j, c := range p.obj {
		obj += c * x[j]
	}
	return &Result{
		Status: Optimal, X: x, Objective: obj,
		Iterations: iterations, Pivots: pivots,
		Basis: p.snapshotBasis(ops, basis),
	}, nil
}

// snapshotBasis records the final basis for warm starts. Bases referencing
// artificial columns never occur here: phase 1 drives artificials out of the
// basis or drops their rows (basis entry -1).
func (p *Problem) snapshotBasis(ops []Op, basis []int) *Basis {
	ids := make([]string, len(p.cons))
	for i, c := range p.cons {
		ids[i] = c.id
	}
	return &Basis{
		numVars: len(p.obj),
		ops:     append([]Op(nil), ops...),
		cols:    append([]int(nil), basis...),
		rowIDs:  ids,
	}
}

// warmPivotTol is the minimum pivot magnitude accepted when re-factorizing a
// seeded basis; anything smaller is treated as singular.
const warmPivotTol = 1e-9

// warmSolve attempts a phase-2-only solve from the previous basis: rebuild
// the slack-form tableau, make the seeded columns basic by Gauss-Jordan
// elimination (with row swaps for stability), and — if the resulting basic
// solution is primal feasible — iterate to optimality from there. Returns
// ok=false when the seed is unusable and the caller must run cold.
func (p *Problem) warmSolve(rows [][]float64, rhs []float64, nSlack int, prev *Basis) (*Result, bool) {
	n := len(p.obj)
	m := len(rows)
	total := n + nSlack
	for _, c := range prev.cols {
		// -1 marks a row the previous solve dropped as redundant; its basis
		// carries no usable column for that row, so start over cold.
		if c < 0 || c >= total {
			return nil, false
		}
	}

	tab := make([][]float64, m)
	slackAt := n
	for i := range rows {
		r := make([]float64, total+1)
		copy(r, rows[i])
		r[total] = rhs[i]
		switch prev.ops[i] {
		case LE:
			r[slackAt] = 1
			slackAt++
		case GE:
			r[slackAt] = -1
			slackAt++
		}
		tab[i] = r
	}

	// Re-factorize: make prev.cols[i] basic in row i, swapping in the
	// largest-magnitude row each step. rowOrder tracks which original
	// constraint row ends up at each tableau position, so the snapshot can
	// pair basic columns with their true host rows (Remap pins by row
	// identity; recording against post-swap positions would pin survivors
	// to the wrong rows after the next job churn).
	basis := make([]int, m)
	rowOrder := make([]int, m)
	for i := range rowOrder {
		rowOrder[i] = i
	}
	pivots := 0
	for i, col := range prev.cols {
		best, bestAbs := -1, warmPivotTol
		for r := i; r < m; r++ {
			if a := math.Abs(tab[r][col]); a > bestAbs {
				best, bestAbs = r, a
			}
		}
		if best < 0 {
			return nil, false // singular under this problem's coefficients
		}
		tab[i], tab[best] = tab[best], tab[i]
		rowOrder[i], rowOrder[best] = rowOrder[best], rowOrder[i]
		pivot(tab, basis, i, col)
		pivots++
	}

	return p.finishSeeded(tab, basis, pivots, 0, total, nil, prev.ops, false, rowOrder)
}

// mappedSolve attempts a seeded solve from a basis remapped across a shape
// change: rebuild the slack-form tableau, pin the surviving basic slacks
// and structural columns back to the rows that hosted them (identified by
// stable row IDs; greedy placement for anything whose host departed),
// complete uncovered rows with their own slack or their largest remaining
// nonbasic column (EQ rows, dead pivots), repair the leftover primal
// infeasibility with a phase-1-lite pass over just the violated rows, and
// hand off to the shared primal-cleanup tail. Returns ok=false when the
// seed is unusable and the caller must run cold.
func (p *Problem) mappedSolve(rows [][]float64, ops []Op, rhs []float64, nSlack int, mb *MappedBasis) (*Result, bool) {
	n := len(p.obj)
	m := len(rows)
	total := n + nSlack

	tab := make([][]float64, m)
	slackOf := make([]int, m) // each row's own slack column; -1 for EQ rows
	slackAt := n
	for i := range rows {
		r := make([]float64, total+1)
		copy(r, rows[i])
		r[total] = rhs[i]
		slackOf[i] = -1
		switch ops[i] {
		case LE:
			r[slackAt] = 1
			slackOf[i] = slackAt
			slackAt++
		case GE:
			r[slackAt] = -1
			slackOf[i] = slackAt
			slackAt++
		}
		tab[i] = r
	}

	rowAt := make(map[string]int, m)
	for i, c := range p.cons {
		if c.id != "" {
			rowAt[c.id] = i
		}
	}

	basis := make([]int, m)
	for i := range basis {
		basis[i] = -1
	}
	inBasis := make([]bool, total)
	pivots := 0

	// 1. Pin basic slacks to their own rows first: a slack column is
	// nonzero only in its own row until that row pivots, so these pivots
	// are exact (|entry| = 1) and cannot conflict with anything.
	for _, id := range mb.slackRows {
		i, ok := rowAt[id]
		if !ok || basis[i] != -1 {
			continue // the non-binding row departed with its job
		}
		col := slackOf[i]
		if col < 0 || inBasis[col] || math.Abs(tab[i][col]) <= warmPivotTol {
			continue
		}
		pivot(tab, basis, i, col)
		inBasis[col] = true
		pivots++
	}

	// 2. Pin surviving structural columns to the rows that hosted them in
	// the old basis; columns whose host row departed (or went numerically
	// dead under the new coefficients) fall back to the best remaining row.
	var loose []int
	for k, col := range mb.cands {
		if col < 0 || col >= n {
			return nil, false
		}
		if inBasis[col] {
			continue
		}
		if i, ok := rowAt[mb.candRows[k]]; ok && basis[i] == -1 && math.Abs(tab[i][col]) > warmPivotTol {
			pivot(tab, basis, i, col)
			inBasis[col] = true
			pivots++
			continue
		}
		loose = append(loose, col)
	}
	for _, col := range loose {
		best, bestAbs := -1, warmPivotTol
		for i := 0; i < m; i++ {
			if basis[i] != -1 {
				continue
			}
			if a := math.Abs(tab[i][col]); a > bestAbs {
				best, bestAbs = i, a
			}
		}
		if best < 0 {
			continue // column unusable under the new coefficients; skip it
		}
		pivot(tab, basis, best, col)
		inBasis[col] = true
		pivots++
	}

	// 3. Complete the basis: uncovered rows (arrived jobs' rows, dead
	// pins) take their own slack, or their largest remaining nonbasic
	// column (EQ rows, eliminated slacks).
	for i := 0; i < m; i++ {
		if basis[i] != -1 {
			continue
		}
		col := slackOf[i]
		if col < 0 || inBasis[col] || math.Abs(tab[i][col]) <= warmPivotTol {
			col = -1
			bestAbs := warmPivotTol
			for j := 0; j < total; j++ {
				if inBasis[j] {
					continue
				}
				if a := math.Abs(tab[i][j]); a > bestAbs {
					col, bestAbs = j, a
				}
			}
			if col < 0 {
				return nil, false // dead row: let the cold path sort it out
			}
		}
		pivot(tab, basis, i, col)
		inBasis[col] = true
		pivots++
	}

	// A remapped vertex can be materially primal infeasible — the job-set
	// change moves many binding rows at once, and dual simplex repair
	// zigzags badly on that (observed: 2x a cold solve at 512 jobs). Run a
	// phase-1-lite instead: artificial columns on just the violated rows,
	// minimized to zero starting from the seeded basis, so repair work
	// scales with the actual damage rather than the problem size. The
	// shape-preserving warm path keeps dual repair, whose violations are
	// small and local.
	var viol []int
	for i := range tab {
		if tab[i][total] < -1e-9 {
			viol = append(viol, i)
		}
	}
	var forbidden []bool
	repairIters := 0
	if len(viol) > 0 {
		wide := total + len(viol)
		for i := range tab {
			r := make([]float64, wide+1)
			copy(r, tab[i][:total])
			r[wide] = tab[i][total]
			tab[i] = r
		}
		for vi, i := range viol {
			// Flip the row (an equality in slack form, so the system is
			// unchanged) to make its new artificial basic at a positive
			// value, displacing whichever column was basic there.
			row := tab[i]
			for j := range row {
				row[j] = -row[j]
			}
			row[total+vi] = 1
			basis[i] = total + vi
		}
		cost1 := make([]float64, wide+1)
		for vi := range viol {
			cost1[total+vi] = 1
		}
		canonicalize(cost1, tab, basis)
		st, it := simplexIterate(tab, basis, cost1, nil)
		repairIters = it
		if st == Unbounded || st == IterationLimit {
			return nil, false
		}
		if -cost1[wide] > 1e-7 {
			// Phase 1 bottomed out above zero: the problem is infeasible,
			// the same verdict the cold path's full phase 1 would reach.
			return &Result{Status: Infeasible, Iterations: repairIters, Pivots: pivots + repairIters, WarmStarted: true, Remapped: true}, true
		}
		// Drive remaining basic artificials out or drop their rows, then
		// retire the artificial columns for phase 2.
		for i := 0; i < m; i++ {
			if basis[i] < total {
				continue
			}
			pivoted := false
			for j := 0; j < total; j++ {
				if math.Abs(tab[i][j]) > eps {
					pivot(tab, basis, i, j)
					pivots++
					pivoted = true
					break
				}
			}
			if !pivoted {
				for j := range tab[i] {
					tab[i][j] = 0
				}
				basis[i] = -1
			}
		}
		for i := range tab {
			for vi := range viol {
				tab[i][total+vi] = 0
			}
		}
		forbidden = make([]bool, wide)
		for vi := range viol {
			forbidden[total+vi] = true
		}
		total = wide
	}

	return p.finishSeeded(tab, basis, pivots, repairIters, total, forbidden, ops, true, nil)
}

// finishSeeded completes a seeded solve once every row has a basic column:
// canonicalize the phase-2 cost row, repair any remaining primal
// infeasibility with dual simplex pivots — on the shape-preserving warm path
// a reset moves the binding constraints slightly, which is exactly the case
// dual simplex fixes cheaply; the mapped path arrives here already feasible
// after its phase-1-lite repair (preIters, with its artificial columns
// marked in forbidden) — and run primal iterations to optimality. rowOrder
// maps tableau positions to original constraint rows (nil = identity) so
// the snapshot records each basic column against its true host row.
// Returns ok=false when the seed must be abandoned for the cold path.
func (p *Problem) finishSeeded(tab [][]float64, basis []int, pivots, preIters, total int, forbidden []bool, ops []Op, remapped bool, rowOrder []int) (*Result, bool) {
	n := len(p.obj)
	cost := make([]float64, total+1)
	for j := 0; j < n; j++ {
		if p.sense == Maximize {
			cost[j] = -p.obj[j]
		} else {
			cost[j] = p.obj[j]
		}
	}
	canonicalize(cost, tab, basis)

	dualIters := 0
	if !primalFeasible(tab, total) {
		ok := false
		ok, dualIters = dualRestore(tab, basis, cost)
		if !ok {
			return nil, false
		}
	}
	for i := range tab {
		if tab[i][total] < 0 {
			tab[i][total] = 0 // clamp roundoff so the ratio test stays sane
		}
	}

	st, it := simplexIterate(tab, basis, cost, forbidden)
	if st == IterationLimit {
		// Let the cold path retry with fresh anti-cycling state.
		return nil, false
	}
	iters := preIters + dualIters + it
	res := &Result{Status: st, Iterations: iters, Pivots: pivots + iters, WarmStarted: true, Remapped: remapped}
	if st != Optimal {
		return res, true // genuinely unbounded from a feasible basis
	}
	x := make([]float64, n)
	for i, b := range basis {
		if b >= 0 && b < n {
			x[b] = tab[i][total]
		}
	}
	obj := 0.0
	for j, c := range p.obj {
		obj += c * x[j]
	}
	res.X, res.Objective = x, obj
	snapBasis := basis
	if rowOrder != nil {
		snapBasis = make([]int, len(basis))
		for i, b := range basis {
			snapBasis[rowOrder[i]] = b
		}
	}
	res.Basis = p.snapshotBasis(ops, snapBasis)
	return res, true
}

// primalFeasible reports whether every rhs entry is non-negative (within
// tolerance).
func primalFeasible(tab [][]float64, total int) bool {
	for i := range tab {
		if tab[i][total] < -1e-9 {
			return false
		}
	}
	return true
}

// dualRestore runs dual simplex pivots until the basic solution is primal
// feasible again: each iteration drives out the most-negative-rhs row,
// entering the column that (approximately) least degrades the objective.
// Reduced costs may be slightly dual infeasible after an objective
// perturbation — negative entries are clamped to zero in the ratio test, and
// the primal cleanup pass that follows restores exact optimality, so this
// phase only needs to terminate, not to be optimal. Returns ok=false when a
// row cannot be repaired (primal infeasible) or the iteration cap is hit.
func dualRestore(tab [][]float64, basis []int, cost []float64) (bool, int) {
	m := len(tab)
	if m == 0 {
		return true, 0
	}
	total := len(cost) - 1
	cap := stallFactor * (m + total)
	if cap < 500 {
		cap = 500
	}
	for it := 0; it < cap; it++ {
		leave, worst := -1, -1e-9
		for i := 0; i < m; i++ {
			if b := tab[i][total]; b < worst {
				leave, worst = i, b
			}
		}
		if leave == -1 {
			return true, it
		}
		enter := -1
		var bestRatio float64
		row := tab[leave]
		for j := 0; j < total; j++ {
			a := row[j]
			if a >= -eps {
				continue
			}
			c := cost[j]
			if c < 0 {
				c = 0
			}
			r := c / -a
			if enter == -1 || r < bestRatio-eps || (r < bestRatio+eps && j < enter) {
				enter, bestRatio = j, r
			}
		}
		if enter == -1 {
			return false, it // row has no negative entry: primal infeasible
		}
		pivot(tab, basis, leave, enter)
		if f := cost[enter]; f != 0 {
			prow := tab[leave]
			for j := range cost {
				cost[j] -= f * prow[j]
			}
		}
	}
	return false, cap
}

// canonicalize subtracts multiples of the basic rows from cost so every
// basic column has zero reduced cost. cost[last] accumulates -objective.
func canonicalize(cost []float64, tab [][]float64, basis []int) {
	for i, b := range basis {
		if b < 0 {
			continue
		}
		f := cost[b]
		if f == 0 {
			continue
		}
		row := tab[i]
		for j := range cost {
			cost[j] -= f * row[j]
		}
	}
}

// simplexIterate runs primal simplex iterations on the canonical tableau
// until optimality, unboundedness, or the iteration cap. forbidden marks
// columns (artificials) that may never enter the basis.
func simplexIterate(tab [][]float64, basis []int, cost []float64, forbidden []bool) (Status, int) {
	m := len(tab)
	if m == 0 {
		return Optimal, 0
	}
	total := len(cost) - 1
	stall := stallFactor * (m + total)
	hard := hardFactor * (m + total)
	if hard < 2000 {
		hard = 2000
	}
	for it := 0; it < hard; it++ {
		bland := it >= stall
		// Entering column.
		enter := -1
		best := -eps
		for j := 0; j < total; j++ {
			if forbidden != nil && forbidden[j] {
				continue
			}
			if cost[j] < best {
				if bland {
					enter = j
					break
				}
				best = cost[j]
				enter = j
			}
		}
		if enter == -1 {
			return Optimal, it
		}
		// Ratio test; break ties by smallest basis index (lexicographic-ish
		// anti-cycling support for the Bland phase).
		leave := -1
		var bestRatio float64
		for i := 0; i < m; i++ {
			a := tab[i][enter]
			if a <= eps {
				continue
			}
			r := tab[i][total] / a
			if leave == -1 || r < bestRatio-eps || (r < bestRatio+eps && basis[i] < basis[leave]) {
				leave, bestRatio = i, r
			}
		}
		if leave == -1 {
			return Unbounded, it
		}
		pivot(tab, basis, leave, enter)
		// Keep cost row canonical.
		f := cost[enter]
		if f != 0 {
			row := tab[leave]
			for j := range cost {
				cost[j] -= f * row[j]
			}
		}
	}
	return IterationLimit, hard
}

// pivot makes column col basic in row r.
func pivot(tab [][]float64, basis []int, r, col int) {
	prow := tab[r]
	inv := 1.0 / prow[col]
	for j := range prow {
		prow[j] *= inv
	}
	prow[col] = 1 // exact
	for i := range tab {
		if i == r {
			continue
		}
		f := tab[i][col]
		if f == 0 {
			continue
		}
		row := tab[i]
		for j := range row {
			row[j] -= f * prow[j]
		}
		row[col] = 0 // exact
	}
	basis[r] = col
}
