package lp

// This file implements the sparse revised simplex engine, the package's one
// solve path. The constraint matrix is held in compressed sparse-column form
// built directly from the Problem's Term lists; the basis is factorized with
// a sparse LU (internal/linalg) and updated with product-form etas,
// refactorizing every few dozen pivots; pricing runs over sparse reduced
// costs — Devex reference weights, Bland's rule after a stall or a long
// degenerate streak — and ratio tests work on FTRAN/BTRAN images of sparse
// vectors instead of full tableau rows. Gavel's allocation programs are
// structurally sparse (an allocation column touches exactly two rows), so an
// iteration costs O(nnz + m) and the problem O(nnz) memory, where a dense
// tableau would pay O(m·n) for both.
//
// The engine is a bounded-variable simplex: presolve extracts singleton cap
// rows (x_j <= u_j) into the per-column bound vector p.ub, and the engine
// enforces those bounds without rows. A nonbasic variable then rests at zero
// OR at its upper bound (e.atUpper), every ratio test also blocks where a
// basic value would cross its upper bound, and a step that hits the entering
// column's own opposite bound becomes a bound flip — no pivot, no basis
// change, strict objective progress.
//
// Seeding: a same-shape Basis is factorized directly (SolveFrom), a
// MappedBasis is re-assembled from its row-pinned projection with
// unit-column repair for dependent columns (SolveFromMapped), and lost
// primal feasibility is restored either by the dual simplex (dual.go, when
// the seed is still dual feasible — the common shape-preserving drift case)
// or by a composite phase 1 that minimizes the sum of infeasibilities, so
// repair work scales with the damage. An optimum is returned only after
// optimize() has refactorized the final basis and re-checked feasibility and
// reduced-cost signs on the fresh factors; any numerical trouble — a singular
// factorization that repair cannot fix, a stuck pivot, a verification loop
// that does not converge — is reported as ok=false, never as an answer
// (Problem.solve then re-solves raw and cold).

import (
	"math"
	"slices"

	"gavel/internal/linalg"
)

const (
	// feasTol is the primal feasibility tolerance on basic values.
	feasTol = 1e-7
	// pivotTol is the minimum acceptable pivot magnitude |w[leave]|; a
	// smaller pivot forces a refresh (and, if fresh, abandons the attempt).
	pivotTol = 1e-7
	// verifyRounds bounds the refresh-and-reverify loop at optimality.
	verifyRounds = 6
	// flipLeave is the ratio-test sentinel for "the entering column reaches
	// its own opposite bound before any basic variable blocks": the step is
	// a bound flip, not a pivot.
	flipLeave = -2
)

// colEntry is one nonzero of a CSC column.
type colEntry struct {
	row int
	val float64
}

// revEngine is the per-solve state of the revised simplex engine.
type revEngine struct {
	p      *Problem
	m      int // constraint rows
	n      int // structural variables
	nTotal int // structural + slack columns; >= nTotal means artificial e_i

	cols    [][]colEntry // CSC over the n structural + slack columns
	ops     []Op         // normalized (rhs >= 0) ops, the shape a Basis records
	rhs     []float64
	obj     []float64 // minimize-sense structural costs; slacks 0
	slackOf []int     // row -> its slack column, -1 for EQ rows

	basis   []int // basic column per position (position == row slot)
	inBasis []bool
	xB      []float64
	factor  *basisFactor // the bank's factorization, rebuilt in place

	hasUB   bool
	ub      []float64 // structural upper bounds (+Inf = none); nil without bounds
	atUpper []bool    // structural nonbasic-at-upper flags; nil without bounds

	devex  []float64 // Devex reference weights; nil on the polish clone (priceWindow)
	seeded bool      // solve started from a previous basis (warm or remapped)

	iterations    int
	pivots        int
	dualIters     int       // dual-simplex pivots and flips (included in iterations)
	refactors     int       // refresh() calls: LU refactorizations after the first
	degenStreak   int       // consecutive zero-step pivots; triggers Bland early
	priceStart    int       // where priceWindow's next scan begins
	polishedX     []float64 // canonical structural values from polishVertex
	polished      bool      // a vertex polish ran; basis factors may be stale
	seedCanonical bool      // the seed basis came from a polished snapshot
	snapPolished  bool      // this solve's snapshot reproduces the canonical vertex
	protectRow    int       // basis position the ratio test avoids evicting (-1 = none)

	ws            *Workspace   // the arena this solve runs in
	arena         *engineArena // this engine's bank of it
	wsY, wsW, wsZ []float64    // BTRAN / FTRAN / pivot-row workspaces
}

// newRevEngine normalizes the problem into CSC form in bank 0 of the
// problem's arena: the engine struct, every per-solve array and the
// factorization live there, and the CSC entries go into one slab sized by a
// counting pass. The problem has at least one row (Problem.solve answers the
// rowless one itself).
func newRevEngine(p *Problem) *revEngine {
	n := len(p.obj)
	m := len(p.cons)
	ar := &p.ws.eng[0]
	e := &ar.engine
	*e = revEngine{p: p, m: m, n: n, ws: p.ws, arena: ar, factor: &ar.factor}
	scratch := ar.floats(wsF64Scratch, n)
	rawCnt := ar.intsBuf(wsIntColCount, n)
	for j := 0; j < n; j++ {
		scratch[j], rawCnt[j] = 0, 0
	}

	// Counting pass: raw per-column term counts bound the deduplicated CSC
	// sizes, so one slab holds every column.
	rawNNZ, nSlack := 0, 0
	for _, c := range p.cons {
		for _, t := range c.terms {
			rawCnt[t.Var]++
			rawNNZ++
		}
		if c.op != EQ {
			nSlack++
		}
	}
	e.nTotal = n + nSlack
	e.hasUB = p.ub != nil
	ar.bind(e)
	slab := ar.colEntries(rawNNZ + nSlack)
	pos := 0
	for j := 0; j < n; j++ {
		e.cols[j] = slab[pos : pos : pos+rawCnt[j]]
		pos += rawCnt[j]
	}

	touched := ar.touched
	nS := 0
	for i, c := range p.cons {
		touched = touched[:0]
		for _, t := range c.terms {
			if scratch[t.Var] == 0 && t.Coeff != 0 {
				touched = append(touched, t.Var)
			}
			scratch[t.Var] += t.Coeff
		}
		b, op, sgn := c.rhs, c.op, 1.0
		if b < 0 {
			b, sgn = -b, -1
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		for _, v := range touched {
			if val := scratch[v] * sgn; val != 0 {
				e.cols[v] = append(e.cols[v], colEntry{row: i, val: val})
			}
			scratch[v] = 0
		}
		e.ops[i], e.rhs[i] = op, b
		e.slackOf[i] = -1
		switch op {
		case LE:
			e.slackOf[i] = n + nS
			e.cols[n+nS] = append(slab[pos:pos:pos+1], colEntry{row: i, val: 1})
			pos++
			nS++
		case GE:
			e.slackOf[i] = n + nS
			e.cols[n+nS] = append(slab[pos:pos:pos+1], colEntry{row: i, val: -1})
			pos++
			nS++
		}
	}
	ar.touched = touched[:0]

	for j := range e.inBasis {
		e.inBasis[j] = false
	}
	for j := n; j < e.nTotal; j++ {
		e.obj[j] = 0
	}
	for j := 0; j < n; j++ {
		if p.sense == Maximize {
			e.obj[j] = -p.obj[j]
		} else {
			e.obj[j] = p.obj[j]
		}
	}
	if e.hasUB {
		e.ub = ar.floats(wsF64UB, n)
		for j := 0; j < n; j++ {
			e.atUpper[j] = false
		}
		copy(e.ub, p.ub)
	}
	e.devex = ar.floats(wsF64Devex, e.nTotal)
	e.devexInit()
	e.protectRow = -1
	return e
}

// bind points the engine's per-solve vectors (everything sized by its m, n
// and nTotal) at this bank's buffers, grown as needed, and empties the
// bank's eta file. Contents are whatever the last solve left.
func (a *engineArena) bind(e *revEngine) {
	a.ops = grow(a.ops, e.m)
	a.colHdr = grow(a.colHdr, e.nTotal)
	e.ops, e.cols = a.ops, a.colHdr
	e.rhs = a.floats(wsF64RHS, e.m)
	e.slackOf = a.intsBuf(wsIntSlackOf, e.m)
	e.obj = a.floats(wsF64Obj, e.nTotal)
	e.basis = a.intsBuf(wsIntBasis, e.m)
	e.inBasis = a.boolsBuf(wsBoolInBasis, e.nTotal)
	e.xB = a.floats(wsF64XB, e.m)
	e.wsY = a.floats(wsF64Y, e.m)
	e.wsW = a.floats(wsF64W, e.m)
	e.wsZ = a.floats(wsF64Z, e.m)
	if e.hasUB {
		e.atUpper = a.boolsBuf(wsBoolAtUpper, e.n)
	}
	e.factor.clearEtas()
}

// nbAtUpper reports whether nonbasic column j currently rests at its upper
// bound. Only structural columns with finite bounds ever do.
func (e *revEngine) nbAtUpper(j int) bool {
	return e.hasUB && j < e.n && e.atUpper[j]
}

// colUB returns column j's upper bound (+Inf for slacks, artificials, and
// unbounded structurals).
func (e *revEngine) colUB(j int) float64 {
	if e.hasUB && j < e.n {
		return e.ub[j]
	}
	return math.Inf(1)
}

// factorize rebuilds the LU from the current basis. With repair=true,
// columns the factorization finds linearly dependent are replaced by
// artificials on still-free rows until it succeeds (each replacement is a
// unit column, so the loop terminates); with repair=false a singular basis
// reports false.
func (e *revEngine) factorize(repair bool) bool {
	for attempt := 0; attempt <= e.m; attempt++ {
		nnz := 0
		for _, c := range e.basis {
			if c >= e.nTotal {
				nnz++
			} else {
				nnz += len(e.cols[c])
			}
		}
		cols, rows, vals := e.arena.sparseCols(e.m, nnz)
		pos := 0
		for i, c := range e.basis {
			start := pos
			if c >= e.nTotal {
				rows[pos], vals[pos] = c-e.nTotal, 1
				pos++
			} else {
				for _, en := range e.cols[c] {
					rows[pos], vals[pos] = en.row, en.val
					pos++
				}
			}
			cols[i] = linalg.SparseCol{Rows: rows[start:pos], Vals: vals[start:pos]}
		}
		err := e.factor.lu.Factorize(e.m, cols, &e.ws.lin)
		if err == nil {
			e.factor.clearEtas()
			return true
		}
		se, ok := err.(*linalg.SingularError)
		if !ok || !repair || len(se.FreeRows) == 0 {
			return false
		}
		if old := e.basis[se.Col]; old < e.nTotal {
			e.inBasis[old] = false
		}
		e.basis[se.Col] = e.nTotal + se.FreeRows[0]
	}
	return false
}

// computeXB recomputes the basic values from scratch under the current
// factors and nonbasic bound assignment: xB = B⁻¹(b − Σ_{j at upper} u_j a_j).
func (e *revEngine) computeXB() {
	w := e.wsW
	copy(w, e.rhs)
	if e.hasUB {
		for j := 0; j < e.n; j++ {
			if e.atUpper[j] && !e.inBasis[j] {
				u := e.ub[j]
				if u == 0 {
					continue
				}
				for _, en := range e.cols[j] {
					w[en.row] -= u * en.val
				}
			}
		}
	}
	e.factor.ftran(w)
	copy(e.xB, w)
}

// refresh refactorizes the current basis and recomputes the basic values
// from scratch, clearing accumulated eta drift.
func (e *revEngine) refresh() bool {
	if !e.factorize(false) {
		return false
	}
	e.refactors++
	e.computeXB()
	return true
}

// ftranCol computes w = B⁻¹ a_j into wsW (position-indexed).
func (e *revEngine) ftranCol(j int) []float64 {
	w := e.wsW
	for i := range w {
		w[i] = 0
	}
	for _, en := range e.cols[j] {
		w[en.row] = en.val
	}
	e.factor.ftran(w)
	return w
}

// reducedCost returns d_j = c_j - y·a_j for a nonbasic column; phase-1
// structural costs are zero.
func (e *revEngine) reducedCost(j int, y []float64, phase1 bool) float64 {
	var d float64
	if !phase1 {
		d = e.obj[j]
	}
	for _, en := range e.cols[j] {
		d -= y[en.row] * en.val
	}
	return d
}

// effCost is the reduced cost in the column's movement direction: a column
// at its lower bound improves by increasing (d_j < 0 eligible), one at its
// upper bound by decreasing (d_j > 0 eligible, so the effective cost is
// -d_j). Eligibility is uniformly effCost < -eps.
func (e *revEngine) effCost(j int, y []float64, phase1 bool) float64 {
	d := e.reducedCost(j, y, phase1)
	if e.nbAtUpper(j) {
		return -d
	}
	return d
}

// priceEnter picks the entering column: every nonbasic column is scored
// d_j²/γ_j against the Devex reference weights; Bland's rule (first eligible
// in fixed order, required for anti-cycling) takes over after the stall
// threshold or a long degenerate streak. The polish clone carries no weights
// and prices with priceWindow.
func (e *revEngine) priceEnter(y []float64, bland, phase1 bool) int {
	total := e.nTotal
	if bland {
		for j := 0; j < total; j++ {
			if !e.inBasis[j] && e.effCost(j, y, phase1) < -eps {
				return j
			}
		}
		return -1
	}
	if e.devex == nil {
		return e.priceWindow(y, phase1)
	}
	best, bestJ := 0.0, -1
	for j := 0; j < total; j++ {
		if e.inBasis[j] {
			continue
		}
		d := e.effCost(j, y, phase1)
		if d >= -eps {
			continue
		}
		if score := d * d / e.devex[j]; score > best {
			best, bestJ = score, j
		}
	}
	return bestJ
}

// priceWindow is the vertex polish's pricing: Dantzig's rule (most negative
// reduced cost) inside a window of columns that rotates from one call to the
// next. The polish clone has never carried reference weights, and which of
// the face's equally optimal bases it stops on — hence every iteration count
// the goldens pin — follows from this scan order; pricing it with Devex would
// be a change of behaviour that re-records them.
func (e *revEngine) priceWindow(y []float64, phase1 bool) int {
	total := e.nTotal
	seg := total / 8
	if seg < 64 {
		seg = 64
	}
	best, bestJ := -eps, -1
	scanned := 0
	for scanned < total {
		stop := scanned + seg
		if stop > total {
			stop = total
		}
		for ; scanned < stop; scanned++ {
			j := e.priceStart + scanned
			if j >= total {
				j -= total
			}
			if e.inBasis[j] {
				continue
			}
			if d := e.effCost(j, y, phase1); d < best {
				best, bestJ = d, j
			}
		}
		if bestJ >= 0 {
			break
		}
	}
	if bestJ >= 0 {
		e.priceStart += scanned
		if e.priceStart >= total {
			e.priceStart -= total
		}
	}
	return bestJ
}

// boundFlip moves the entering column across to its opposite bound without a
// pivot: the basic values shift by the full bound range along the entering
// direction and the nonbasic state toggles. The objective strictly improves
// (|d|·u > 0), so flips can never cycle.
func (e *revEngine) boundFlip(enter int, s float64, w []float64) {
	delta := s * e.ub[enter]
	for i := range e.xB {
		e.xB[i] -= delta * w[i]
	}
	e.atUpper[enter] = !e.atUpper[enter]
	e.iterations++
	e.degenStreak = 0
}

// applyPivot is the bounds-oblivious pivot used where the entering column is
// known to move from zero and the leaving one lands at zero (artificial
// drive-out): step and value coincide.
func (e *revEngine) applyPivot(enter, leave int, theta float64, w []float64) bool {
	return e.applyPivotB(enter, leave, theta, theta, w, nil, false)
}

// applyPivotB replaces basis position leave with column enter. delta is the
// entering column's signed displacement from its current bound (negative when
// it descends from its upper bound), enterVal its resulting value, and
// leaveToUpper tells which bound the leaving variable lands on. Devex weights
// absorb the pivot (from row, the pivot row's alpha_j, when the caller has
// it) before the factors do, the eta is recorded, and the
// degenerate-streak counter feeds the early-Bland anti-cycling switch.
func (e *revEngine) applyPivotB(enter, leave int, delta, enterVal float64, w, row []float64, leaveToUpper bool) bool {
	e.devexUpdate(enter, leave, w, row)
	if delta != 0 {
		for i := range e.xB {
			e.xB[i] -= delta * w[i]
		}
	}
	e.xB[leave] = enterVal
	if old := e.basis[leave]; old < e.nTotal {
		e.inBasis[old] = false
		if e.hasUB && old < e.n {
			e.atUpper[old] = leaveToUpper
		}
	}
	e.basis[leave] = enter
	e.inBasis[enter] = true
	if e.hasUB && enter < e.n {
		e.atUpper[enter] = false
	}
	e.factor.push(leave, w)
	e.iterations++
	e.pivots++
	if delta > 1e-12 || delta < -1e-12 {
		e.degenStreak = 0
	} else {
		e.degenStreak++
	}
	if e.factor.needRefresh(e.m) {
		return e.refresh()
	}
	return true
}

// degenCap is the degenerate-streak length that switches pricing to Bland's
// rule even before the stall threshold: a streak this long is the signature
// of a cycling (or near-cycling) degenerate vertex.
func (e *revEngine) degenCap() int {
	return 500 + (e.m+e.nTotal)/2
}

// maxInfeas returns the largest primal infeasibility: negative basic values,
// basic values above their upper bound, plus any artificial's distance from
// zero.
func (e *revEngine) maxInfeas() float64 {
	worst := 0.0
	for i, c := range e.basis {
		v := e.xB[i]
		if c >= e.nTotal {
			if v < 0 {
				v = -v
			}
			if v > worst {
				worst = v
			}
			continue
		}
		if -v > worst {
			worst = -v
		}
		if e.hasUB && c < e.n {
			if over := v - e.ub[c]; over > worst {
				worst = over
			}
		}
	}
	return worst
}

// dualRepairSlots is the largest number of violated basic slots for which a
// seeded solve tries the dual simplex even without dual feasibility.
const dualRepairSlots = 8

// dualRepairable reports whether the current seed's primal violations have
// the shape the dual simplex fixes well even from a dual-infeasible basis: a
// nonbasic column parked at its upper bound (the only way a mapped seed can
// overfill a row), and at most dualRepairSlots violated positions, every one
// a bound overshoot (a basic value below zero or above its upper bound). In
// that shape the repair is eviction-led — move each overshot basic to its
// bound — and the dual ratio test finds the compensating column (typically a
// slack freeing a mis-pinned variable) in one pivot per violation. An
// artificial sitting above zero means a row is missing structural mass
// instead; the entering column for that repair should be chosen by reduced
// cost (primal pricing), which a meaningless dual ratio test cannot do.
// Returns the violated-slot count when repairable, 0 otherwise.
func (e *revEngine) dualRepairable() int {
	if !e.hasUB {
		return 0
	}
	parked := false
	for j := 0; j < e.n && !parked; j++ {
		parked = e.atUpper[j] && !e.inBasis[j]
	}
	if !parked {
		return 0
	}
	bad := 0
	for i, c := range e.basis {
		v := e.xB[i]
		switch {
		case c >= e.nTotal && v > feasTol:
			return 0
		case v < -feasTol:
			bad++
		case c < e.n && e.hasUB && !math.IsInf(e.ub[c], 1) && v > e.ub[c]+feasTol:
			bad++
		}
	}
	if bad > dualRepairSlots {
		return 0
	}
	return bad
}

// phase1 runs the composite phase 1: minimize the sum of infeasibilities
// (negative real basic values, values above their upper bounds, nonzero
// artificials) from the current basis. The cost vector is rebuilt every
// iteration from the infeasible set, and the ratio test blocks at every sign
// change so the piecewise-linear objective stays consistent. Returns Optimal
// once feasible, Infeasible when no improving column remains, IterationLimit
// at the cap; ok=false means numerical trouble (caller falls back).
func (e *revEngine) phase1() (Status, bool) {
	total := e.nTotal
	stall := stallFactor * (e.m + total)
	hard := hardFactor * (e.m + total)
	if hard < 2000 {
		hard = 2000
	}
	for it := 0; it < hard; it++ {
		y := e.wsY
		any := false
		for i, c := range e.basis {
			v := e.xB[i]
			switch {
			case c >= e.nTotal && v > feasTol:
				y[i], any = 1, true
			case v < -feasTol:
				y[i], any = -1, true
			case c < e.n && e.hasUB && v > e.ub[c]+feasTol:
				y[i], any = 1, true
			default:
				y[i] = 0
			}
		}
		if !any {
			return Optimal, true
		}
		e.factor.btran(y)
		bland := it >= stall || e.degenStreak >= e.degenCap()
		enter := e.priceEnter(y, bland, true)
		if enter < 0 {
			if e.factor.dirty() {
				if !e.refresh() {
					return 0, false
				}
				continue
			}
			return Infeasible, true
		}
		dEnter := e.effCost(enter, y, true)
		s := 1.0
		if e.nbAtUpper(enter) {
			s = -1
		}
		w := e.ftranCol(enter)
		leave, theta, toUpper := e.phase1Ratio(w, s, dEnter, e.colUB(enter), bland)
		if leave == flipLeave {
			e.boundFlip(enter, s, w)
			continue
		}
		if leave < 0 {
			// A convex objective bounded below always has a breakpoint;
			// reaching here means the numerics went bad.
			if e.factor.dirty() {
				if !e.refresh() {
					return 0, false
				}
				continue
			}
			return 0, false
		}
		if a := math.Abs(w[leave]); a < pivotTol {
			if e.factor.dirty() {
				if !e.refresh() {
					return 0, false
				}
				continue
			}
			return 0, false
		}
		base := 0.0
		if e.nbAtUpper(enter) {
			base = e.ub[enter]
		}
		delta := s * theta
		if !e.applyPivotB(enter, leave, delta, base+delta, w, nil, toUpper) {
			return 0, false
		}
	}
	return IterationLimit, true
}

// phase1Bp is one breakpoint of the piecewise-linear phase-1 objective
// along the entering direction: basis position i crosses a bound at step
// theta, increasing the directional derivative by delta; up marks an
// upper-bound crossing (the leaving variable lands at its upper bound).
type phase1Bp struct {
	i     int
	theta float64
	delta float64
	up    bool
}

// phase1Ratio runs the long-step (piecewise-linear) ratio test of the
// composite phase 1: starting from the entering column's effective reduced
// cost dEnter (the initial directional derivative, negative), it walks the
// breakpoints — infeasible basic values reaching their violated bound,
// feasible ones going negative or crossing their upper bound, artificials
// crossing or leaving zero — in step order, accumulating each crossing's
// slope contribution, and pivots at the breakpoint where the derivative
// turns nonnegative. Passing breakpoints instead of blocking at the first
// one is what makes repairing a heavily churned seed cost a handful of
// pivots rather than one per violated row. A step that would pass the
// entering column's own bound range uEnter becomes a bound flip (flipLeave).
// Under Bland's rule it degrades to the blocking short step for
// anti-cycling.
func (e *revEngine) phase1Ratio(w []float64, s, dEnter, uEnter float64, bland bool) (int, float64, bool) {
	bps := e.phase1Breakpoints(w, s)
	if len(bps) == 0 {
		if !math.IsInf(uEnter, 1) {
			return flipLeave, uEnter, false
		}
		return -1, 0, false
	}
	if bland {
		best := -1
		for k, b := range bps {
			if best < 0 || b.theta < bps[best].theta-eps ||
				(b.theta < bps[best].theta+eps && e.basis[b.i] < e.basis[bps[best].i]) {
				best = k
			}
		}
		if !math.IsInf(uEnter, 1) && bps[best].theta > uEnter+eps {
			return flipLeave, uEnter, false
		}
		return bps[best].i, bps[best].theta, bps[best].up
	}
	sortBreakpoints(bps)
	sl := dEnter
	stop := len(bps) - 1
	for k, b := range bps {
		sl += b.delta
		if sl >= -1e-12 {
			stop = k
			break
		}
	}
	// Among breakpoints at (numerically) the same step, pivot on the
	// largest-magnitude entry for stability.
	best := bps[stop]
	for _, b := range bps {
		if math.Abs(b.theta-best.theta) <= eps && math.Abs(w[b.i]) > math.Abs(w[best.i]) {
			best = b
		}
	}
	if !math.IsInf(uEnter, 1) && best.theta > uEnter+eps {
		return flipLeave, uEnter, false
	}
	return best.i, best.theta, best.up
}

// phase1Breakpoints collects the bound crossings of the basic values along
// the entering direction (xB[i](t) = xB[i] - t·r_i with r_i = s·w[i]), with
// each crossing's slope increase. An infeasible value contributes two
// breakpoints when the direction carries it across the whole feasible band
// and out the other side.
func (e *revEngine) phase1Breakpoints(w []float64, s float64) []phase1Bp {
	bps := e.arena.bps[:0]
	for i, c := range e.basis {
		v, r := e.xB[i], s*w[i]
		if c >= e.nTotal {
			switch {
			case v > feasTol:
				if r > eps {
					bps = append(bps, phase1Bp{i, v / r, 2 * r, false})
				}
			case v < -feasTol:
				if r < -eps {
					bps = append(bps, phase1Bp{i, v / r, -2 * r, false})
				}
			default:
				if r > eps {
					bps = append(bps, phase1Bp{i, 0, r, false})
				} else if r < -eps {
					bps = append(bps, phase1Bp{i, 0, -r, false})
				}
			}
			continue
		}
		u := e.colUB(c)
		switch {
		case v < -feasTol:
			if r < -eps {
				bps = append(bps, phase1Bp{i, v / r, -r, false})
				if !math.IsInf(u, 1) {
					bps = append(bps, phase1Bp{i, (v - u) / r, -r, true})
				}
			}
		case !math.IsInf(u, 1) && v > u+feasTol:
			if r > eps {
				bps = append(bps, phase1Bp{i, (v - u) / r, r, true})
				bps = append(bps, phase1Bp{i, v / r, r, false})
			}
		default:
			if r > eps {
				vv := v
				if vv < 0 {
					vv = 0
				}
				bps = append(bps, phase1Bp{i, vv / r, r, false})
			} else if r < -eps && !math.IsInf(u, 1) {
				room := u - v
				if room < 0 {
					room = 0
				}
				bps = append(bps, phase1Bp{i, room / (-r), -r, true})
			}
		}
	}
	e.arena.bps = bps[:0] // keep what the list grew to
	return bps
}

// sortBreakpoints orders the breakpoints by step. slices.SortFunc runs the
// same pattern-defeating quicksort as sort.Slice — identical comparisons and
// swaps, so ties land in the same (unstable but deterministic) order — minus
// sort.Slice's reflection swapper, which allocated on every ratio test.
func sortBreakpoints(bps []phase1Bp) {
	slices.SortFunc(bps, func(a, b phase1Bp) int {
		switch {
		case a.theta < b.theta:
			return -1
		case b.theta < a.theta:
			return 1
		}
		return 0
	})
}

// better reports whether candidate row i at ratio theta beats the incumbent:
// strictly smaller ratio wins; near-ties prefer the larger pivot magnitude
// for stability, or the smaller basis column under Bland's rule.
func (e *revEngine) better(i int, theta float64, leave int, best float64, w []float64, bland bool) bool {
	if leave < 0 || theta < best-eps {
		return true
	}
	if theta > best+eps {
		return false
	}
	if bland {
		return e.basis[i] < e.basis[leave]
	}
	return math.Abs(w[i]) > math.Abs(w[leave])
}

// phase2 runs primal simplex on the real objective from the current
// (feasible) basis. Basic artificials are held at zero by the ratio test;
// basic values block at both their bounds, and a step blocked first by the
// entering column's own bound becomes a flip.
func (e *revEngine) phase2() (Status, bool) {
	total := e.nTotal
	stall := stallFactor * (e.m + total)
	hard := hardFactor * (e.m + total)
	if hard < 2000 {
		hard = 2000
	}
	for it := 0; it < hard; it++ {
		y := e.wsY
		for i, c := range e.basis {
			if c < e.nTotal {
				y[i] = e.obj[c]
			} else {
				y[i] = 0
			}
		}
		e.factor.btran(y)
		bland := it >= stall || e.degenStreak >= e.degenCap()
		enter := e.priceEnter(y, bland, false)
		if enter < 0 {
			return Optimal, true
		}
		s := 1.0
		if e.nbAtUpper(enter) {
			s = -1
		}
		w := e.ftranCol(enter)
		leave, theta, toUpper := e.phase2Ratio(w, s, e.colUB(enter), bland)
		if leave == flipLeave {
			e.boundFlip(enter, s, w)
			continue
		}
		if leave < 0 {
			return Unbounded, true
		}
		if a := math.Abs(w[leave]); a < pivotTol {
			if e.factor.dirty() {
				if !e.refresh() {
					return 0, false
				}
				continue
			}
			return 0, false
		}
		base := 0.0
		if e.nbAtUpper(enter) {
			base = e.ub[enter]
		}
		delta := s * theta
		if !e.applyPivotB(enter, leave, delta, base+delta, w, nil, toUpper) {
			return 0, false
		}
	}
	return IterationLimit, true
}

// phase2Ratio is the primal ratio test with bounds: basic artificials block
// at zero (they may pivot out on a degenerate step but never move), real
// basic values block where they would go negative or cross their upper
// bound, and the entering column's own bound range uEnter caps the step
// (flipLeave when it binds first).
func (e *revEngine) phase2Ratio(w []float64, s, uEnter float64, bland bool) (int, float64, bool) {
	leave, best := -1, 0.0
	var toUpper bool
	for i, c := range e.basis {
		v, r := e.xB[i], s*w[i]
		cand, theta, up := false, 0.0, false
		if c >= e.nTotal {
			if r > eps || r < -eps {
				cand, theta = true, 0
			}
		} else if r > eps {
			if v < 0 {
				v = 0
			}
			cand, theta = true, v/r
		} else if r < -eps {
			if u := e.colUB(c); !math.IsInf(u, 1) {
				room := u - v
				if room < 0 {
					room = 0
				}
				cand, theta, up = true, room/(-r), true
			}
		}
		if cand && e.better(i, theta, leave, best, w, bland) {
			leave, best, toUpper = i, theta, up
		}
	}
	if !math.IsInf(uEnter, 1) && (leave < 0 || uEnter < best-eps) {
		return flipLeave, uEnter, false
	}
	if leave == e.protectRow && leave >= 0 {
		// The polish protects its face row's artificial so the polished
		// basis truncates to an exact original-shape basis; evict any
		// other candidate tied at the same step instead, when one exists.
		alt, altW := -1, 0.0
		for i, c := range e.basis {
			if i == e.protectRow {
				continue
			}
			r := s * w[i]
			var ok bool
			if c >= e.nTotal {
				ok = r > eps || r < -eps
			} else if r > eps {
				v := e.xB[i]
				if v < 0 {
					v = 0
				}
				ok = v/r <= best+eps
			} else if r < -eps {
				if u := e.colUB(c); !math.IsInf(u, 1) {
					room := u - e.xB[i]
					if room < 0 {
						room = 0
					}
					ok = room/(-r) <= best+eps
				}
			}
			if ok && math.Abs(w[i]) > altW {
				alt, altW = i, math.Abs(w[i])
			}
		}
		if alt >= 0 {
			leave = alt
			c := e.basis[alt]
			toUpper = c < e.nTotal && s*w[alt] < -eps
		}
	}
	return leave, best, toUpper
}

// bestReducedCost returns the most negative phase-2 effective reduced cost
// under the current factors (used by the post-optimality verification).
func (e *revEngine) bestReducedCost() float64 {
	y := e.wsY
	for i, c := range e.basis {
		if c < e.nTotal {
			y[i] = e.obj[c]
		} else {
			y[i] = 0
		}
	}
	e.factor.btran(y)
	best := 0.0
	for j := 0; j < e.nTotal; j++ {
		if e.inBasis[j] {
			continue
		}
		if d := e.effCost(j, y, false); d < best {
			best = d
		}
	}
	return best
}

// optimize drives the current basis to a verified optimum: restore
// feasibility when needed — a seeded basis that kept dual feasibility is
// repaired by the dual simplex, anything else by the composite phase 1 —
// then run phase 2, refresh the factorization and re-verify feasibility and
// optimality (eta drift can make a stale optimum only look optimal). A
// verification failure loops; failure to converge in verifyRounds rounds
// reports ok=false.
func (e *revEngine) optimize() (Status, bool) {
	for round := 0; round < verifyRounds; round++ {
		if e.maxInfeas() > feasTol {
			repaired := false
			// The dual simplex is the preferred repair for seeded starts. With
			// a dual-feasible basis it is the textbook move; with only a
			// handful of violated basic slots it is attempted anyway — a
			// churned remap often needs exactly one eviction (e.g. the
			// homogenizing variable of a fractional objective pinned to the
			// wrong row), which the dual finds directly while the composite
			// phase 1's greedy pricing can wander across hundreds of columns.
			// Success is always followed by phase 2, so a dual-infeasible
			// start costs nothing in correctness, and the stall guard bounds
			// the damage when the repair goes nowhere.
			if round == 0 && e.seeded && !e.p.noDual {
				budget := 0
				attempt := e.dualFeasible()
				if !attempt {
					if bad := e.dualRepairable(); bad > 0 {
						attempt, budget = true, 4*bad+8
					}
				}
				if attempt {
					repaired = e.dualSimplex(budget)
				}
				if repaired && e.factor.dirty() {
					if !e.refresh() {
						return 0, false
					}
					repaired = e.maxInfeas() <= feasTol
				}
			}
			if !repaired && e.maxInfeas() > feasTol {
				st, ok := e.phase1()
				if !ok {
					return 0, false
				}
				if st != Optimal {
					return st, true
				}
			}
		}
		st, ok := e.phase2()
		if !ok {
			return 0, false
		}
		if st != Optimal {
			return st, true
		}
		if e.factor.dirty() {
			if !e.refresh() {
				return 0, false
			}
		}
		if e.maxInfeas() <= feasTol && e.bestReducedCost() >= -eps {
			// A zero-pivot solve from a polished snapshot is sitting on
			// the canonical vertex already (the seed reproduced it and
			// nothing moved), so re-canonicalizing would be pure waste:
			// this is what makes periodic refreshes of an unchanged
			// problem cost zero iterations.
			if e.seedCanonical && e.iterations == 0 {
				e.snapPolished = true
				return Optimal, true
			}
			// Clean zero-valued artificials out of the basis first (their
			// snapshot entries would be -1, which seeding rejects), then
			// canonicalize the vertex: the polish works on a clone with
			// the optimal objective pinned as a row, so the engine's own
			// state stays certified regardless of its outcome.
			if !e.driveOutArtificials() {
				return 0, false
			}
			e.polishVertex()
			return Optimal, true
		}
	}
	return 0, false
}

// sigmaCost is the deterministic pseudo-random secondary objective used by
// polishVertex to pick a canonical vertex of a degenerate optimal face. It
// depends only on the column index, so cold, warm, and remapped solves of
// the same problem minimize the same tie-break and land on the same vertex.
// Slack columns carry no weight: bases differing only in slack arrangement
// report the same x.
func (e *revEngine) sigmaCost(j int) float64 {
	if j >= e.n {
		return 0
	}
	// Full splitmix64 mixing, and 52 bits of it in the mantissa: a weaker
	// hash (one multiply + xorshift) stays *linear* in j in its top bits,
	// making swap circuits with equal index sums near-ties below the
	// pricing tolerance — exactly the degeneracy the polish must break —
	// and truncated bits would re-tie distinct columns outright.
	h := uint64(j) + 0x9E3779B97F4A7C15
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return 0.5 + float64(h>>12)/float64(1<<53)
}

// polishVertex canonicalizes which optimal vertex the solve reports. The
// simplex walk's endpoint on a degenerate optimal face depends on the seed
// (a cold start and a remapped basis legitimately stop at different, equally
// optimal vertices), which would make warm starts change results, not just
// speed. The face is imposed *explicitly* — a lexicographic second stage:
// clone the engine with one extra row, obj·x = obj*, whose artificial the
// ordinary ratio test already holds at zero, then minimize the fixed
// sigmaCost tie-break with plain phase-2 simplex. Filtering entering
// columns by one basis's reduced costs would NOT work here: under
// degeneracy the set {j : d_j = 0} is basis-dependent, and a walk so
// restricted can stall at a vertex that is not the face optimum, leaving
// the result path-dependent — the explicit row makes the restricted LP's
// unique optimum (generic sigma weights) reachable from every seed. The
// clone inherits the upper bounds and the nonbasic-at-upper state (a vertex
// of the bounded polytope is a basis plus a bound assignment, and sigma's
// positive weights pull flippable columns to their canonical bound). On any
// numerical trouble the current (already optimal) vertex is kept.
func (e *revEngine) polishVertex() {
	objStar := 0.0
	for i, c := range e.basis {
		if c < e.nTotal {
			objStar += e.obj[c] * e.xB[i]
		}
	}
	if e.hasUB {
		for j := 0; j < e.n; j++ {
			if e.atUpper[j] && !e.inBasis[j] {
				objStar += e.obj[j] * e.ub[j]
			}
		}
	}
	// The clone lives in the arena's second bank: the engine's own state
	// (bank 0) stays certified whatever the polish does.
	m2 := e.m + 1
	ar := &e.ws.eng[1]
	e2 := &ar.engine
	*e2 = revEngine{p: e.p, m: m2, n: e.n, nTotal: e.nTotal, ws: e.ws, arena: ar, factor: &ar.factor, hasUB: e.hasUB, ub: e.ub}
	ar.bind(e2)
	nnz := 0
	for j := 0; j < e.n; j++ {
		if e.obj[j] != 0 {
			nnz += len(e.cols[j]) + 1
		}
	}
	slab := ar.colEntries(nnz)
	for j := 0; j < e.nTotal; j++ {
		col := e.cols[j]
		if j < e.n && e.obj[j] != 0 {
			start := len(slab)
			slab = append(slab, col...)
			slab = append(slab, colEntry{row: e.m, val: e.obj[j]})
			col = slab[start:len(slab):len(slab)]
		}
		e2.cols[j] = col
	}
	copy(e2.ops, e.ops)
	copy(e2.rhs, e.rhs)
	copy(e2.slackOf, e.slackOf)
	copy(e2.basis, e.basis)
	e2.ops[e.m], e2.rhs[e.m], e2.slackOf[e.m], e2.basis[e.m] = EQ, objStar, -1, e.nTotal+e.m
	for j := range e2.obj {
		e2.obj[j] = 0
	}
	for j := 0; j < e.n; j++ {
		e2.obj[j] = e.sigmaCost(j)
	}
	copy(e2.inBasis, e.inBasis)
	if e.hasUB {
		copy(e2.atUpper, e.atUpper)
	}
	e2.protectRow = e.m
	if !e2.refresh() {
		return
	}
	for round := 0; ; round++ {
		st, ok := e2.phase2()
		if !ok || st != Optimal {
			return
		}
		if e2.factor.dirty() && !e2.refresh() {
			return
		}
		if e2.maxInfeas() <= feasTol && e2.bestReducedCost() >= -eps {
			break
		}
		if round >= verifyRounds {
			return
		}
	}
	// Adopt the canonical vertex.
	e.iterations += e2.iterations
	e.pivots += e2.pivots
	e.polished = true
	if faceArt := e.nTotal + e.m; e2.basis[e.m] != faceArt {
		// Degenerate sigma pivots (dual-feasibility proof steps) evict the
		// face artificial while leaving x untouched; its value — the slack
		// of obj·x = obj* — is still zero, so pivot it straight back. The
		// incumbent in the face slot need not be at zero (a bound-flipping
		// entry can park a column there at its upper bound), so scan every
		// slot whose incumbent rests at a bound: pivoting the artificial
		// onto any such slot k with w[k] != 0 keeps the basis invertible and
		// leaves x untouched, and a swap then moves it into the face slot.
		// This restores the exact-basis case below, which is what lets the
		// next warm start skip the polish outright.
		w := e2.wsW
		for i := range w {
			w[i] = 0
		}
		w[e.m] = 1
		e2.factor.ftran(w)
		k, kw, kUpper := -1, pivotTol, false
		for i, c := range e2.basis {
			aw := math.Abs(w[i])
			if aw <= kw {
				continue
			}
			switch {
			case math.Abs(e2.xB[i]) <= feasTol:
				k, kw, kUpper = i, aw, false
			case e2.hasUB && c < e2.n && !math.IsInf(e2.ub[c], 1) &&
				math.Abs(e2.ub[c]-e2.xB[i]) <= feasTol:
				k, kw, kUpper = i, aw, true
			}
		}
		if k >= 0 {
			old := e2.basis[k]
			target := 0.0
			if old < e2.nTotal {
				e2.inBasis[old] = false
				if kUpper {
					e2.atUpper[old] = true
					target = e2.ub[old]
				}
			}
			theta := (e2.xB[k] - target) / w[k]
			for i := range e2.xB {
				e2.xB[i] -= theta * w[i]
			}
			e2.xB[k] = theta
			e2.basis[k] = faceArt
			e2.pivots++
			if k != e.m {
				e2.basis[k], e2.basis[e.m] = e2.basis[e.m], e2.basis[k]
				e2.xB[k], e2.xB[e.m] = e2.xB[e.m], e2.xB[k]
			}
			// e2's factorization is stale after the swap; the adoption path
			// below refactorizes e from scratch before trusting anything.
		}
	}
	if e2.basis[e.m] == e.nTotal+e.m {
		// The face row still hosts its (protected) artificial, so dropping
		// that row leaves an exact basis of the canonical vertex for the
		// original shape. The sigma walk's final basis need not be dual
		// feasible for the *true* objective, so run one more phase-2 pass:
		// at an optimum every improving column is blocked at step zero,
		// meaning the pass only swaps basis columns and never moves x —
		// and it is what lets the next warm start verify this snapshot in
		// zero pivots and skip the polish entirely.
		copy(e.basis, e2.basis[:e.m])
		copy(e.inBasis, e2.inBasis)
		copy(e.xB, e2.xB[:e.m])
		if e.hasUB {
			copy(e.atUpper, e2.atUpper)
		}
		if !e.refresh() {
			return
		}
		if st, ok := e.phase2(); ok && st == Optimal {
			e.snapPolished = true
		}
		return
	}
	// A degenerate step evicted the artificial despite the protection: the
	// truncated basis is best-effort (it may not factorize for the original
	// shape, and the next seed attempt then falls back), but the x vector is
	// taken from the extended basis directly, so the reported allocation is
	// canonical regardless.
	x := ar.floats(wsF64Scratch, e.n)
	for j := 0; j < e.n; j++ {
		x[j] = 0
		if e2.nbAtUpper(j) {
			x[j] = e2.ub[j]
		}
	}
	for i, c := range e2.basis {
		if c < e.n {
			x[c] = e2.xB[i]
		}
	}
	e.polishedX = x
	copy(e.basis, e2.basis[:e.m])
	copy(e.inBasis, e2.inBasis)
	copy(e.xB, e2.xB[:e.m])
	if e.hasUB {
		copy(e.atUpper, e2.atUpper)
	}
}

// driveOutArtificials pivots zero-valued basic artificials onto real columns
// where possible (a degenerate pivot), so the snapshot basis stays portable;
// rows whose artificial cannot move host a truly redundant constraint and
// snapshot as -1, which seeding rejects. Columns resting at their upper bound
// are not candidates: a zero-step entry would teleport them to zero.
func (e *revEngine) driveOutArtificials() bool {
	for i, c := range e.basis {
		if c < e.nTotal {
			continue
		}
		rho := e.wsY
		for k := range rho {
			rho[k] = 0
		}
		rho[i] = 1
		e.factor.btran(rho)
		enter := -1
		for j := 0; j < e.nTotal && enter < 0; j++ {
			if e.inBasis[j] || e.nbAtUpper(j) {
				continue
			}
			var a float64
			for _, en := range e.cols[j] {
				a += rho[en.row] * en.val
			}
			if math.Abs(a) > 1e-7 {
				enter = j
			}
		}
		if enter < 0 {
			continue
		}
		w := e.ftranCol(enter)
		if math.Abs(w[i]) <= pivotTol {
			continue
		}
		if !e.applyPivot(enter, i, 0, w) {
			return false
		}
	}
	return true
}

// finish assembles the Result from an optimal basis in the engine's arena
// bank: X, the snapshot's basic columns and its at-upper list are arena
// storage, its ops are the engine's, and it carries no row identities. The
// caller either lifts it to the full shape (presolve, which reads exactly
// those fields) or hands it to Problem.own.
func (e *revEngine) finish(warm, remapped bool) *Result {
	p, ar := e.p, e.arena
	ar.resX = grow(ar.resX, e.n)
	x := ar.resX
	if e.polishedX != nil {
		copy(x, e.polishedX)
		for j, v := range x {
			if v < 0 && v > -1e-9 {
				x[j] = 0
			}
		}
	} else {
		for j := 0; j < e.n; j++ {
			x[j] = 0
			if e.nbAtUpper(j) {
				x[j] = e.ub[j]
			}
		}
		for i, c := range e.basis {
			if c < e.n {
				v := e.xB[i]
				if v < 0 && v > -1e-9 {
					v = 0
				}
				x[c] = v
			}
		}
	}
	obj := 0.0
	for j, c := range p.obj {
		obj += c * x[j]
	}
	snap := &ar.resBasis
	cols := grow(snap.cols, e.m)
	for i, c := range e.basis {
		if c < e.nTotal {
			cols[i] = c
		} else {
			cols[i] = -1 // redundant row: its artificial never left
		}
	}
	atUpper := snap.atUpper[:0]
	if e.hasUB {
		for j := 0; j < e.n; j++ {
			if e.atUpper[j] && !e.inBasis[j] {
				atUpper = append(atUpper, j)
			}
		}
	}
	*snap = Basis{numVars: e.n, ops: e.ops, cols: cols, atUpper: atUpper, polished: e.snapPolished}
	ar.res = Result{
		Status: Optimal, X: x, Objective: obj,
		Iterations: e.iterations, Pivots: e.pivots,
		DualIterations: e.dualIters, Refactorizations: e.refactors,
		Basis: snap, WarmStarted: warm, Remapped: remapped,
	}
	return &ar.res
}

// own detaches a result the revised engine assembled in the arena: the
// returned Result and its Basis (now carrying the problem's row identities)
// are the caller's to keep; X is lent from the workspace (see Workspace).
func (p *Problem) own(res *Result) *Result {
	out := new(Result)
	*out = *res
	if res.X != nil {
		out.X = p.ws.lendX(len(res.X))
		copy(out.X, res.X)
	}
	if b := res.Basis; b != nil {
		out.Basis = p.snapshotBasis(p.ws.snapshot(), b.ops, b.cols)
		out.Basis.polished = b.polished
		if len(b.atUpper) > 0 {
			out.Basis.atUpper = append(out.Basis.atUpper, b.atUpper...)
		}
	}
	return out
}

// statusResult wraps a non-optimal terminal status.
func (e *revEngine) statusResult(st Status, warm, remapped bool) *Result {
	e.arena.res = Result{
		Status: st, Iterations: e.iterations, Pivots: e.pivots,
		DualIterations: e.dualIters, Refactorizations: e.refactors,
		WarmStarted: warm, Remapped: remapped,
	}
	return &e.arena.res
}

// solveCold runs the two-phase revised simplex from the slack/artificial
// starting basis. ok=false: no verified answer.
func (e *revEngine) solveCold() (*Result, bool) {
	for i := 0; i < e.m; i++ {
		col := e.slackOf[i]
		switch {
		case e.ops[i] == LE:
			// Slack basic at rhs >= 0: feasible.
		case e.ops[i] == GE && e.rhs[i] <= feasTol:
			// Surplus basic at -rhs ~ 0: feasible enough.
		default:
			col = e.nTotal + i // artificial
		}
		e.basis[i] = col
		if col < e.nTotal {
			e.inBasis[col] = true
		}
	}
	if !e.refresh() {
		return nil, false
	}
	st, ok := e.optimize()
	if !ok {
		return nil, false
	}
	if st != Optimal {
		return e.statusResult(st, false, false), true
	}
	return e.finish(false, false), true
}

// solveSeeded runs from a same-shape previous basis (the positional warm
// start), restoring the seed's nonbasic-at-upper assignment where the bounds
// still allow it. ok=false means the seed was unusable; the caller retries
// cold.
func (e *revEngine) solveSeeded(prev *Basis) (*Result, bool) {
	for _, c := range prev.cols {
		if c < 0 || c >= e.nTotal {
			return nil, false
		}
	}
	for i, c := range prev.cols {
		e.basis[i] = c
		e.inBasis[c] = true
	}
	e.seedCanonical = prev.polished
	e.seeded = true
	if e.hasUB {
		for _, j := range prev.atUpper {
			if j >= 0 && j < e.n && !e.inBasis[j] && !math.IsInf(e.ub[j], 1) {
				e.atUpper[j] = true
			}
		}
	}
	if !e.factorize(false) {
		return nil, false
	}
	e.computeXB()
	st, ok := e.optimize()
	if !ok || st == IterationLimit {
		return nil, false
	}
	if st != Optimal {
		return e.statusResult(st, true, false), true
	}
	return e.finish(true, false), true
}

// solveMapped runs from a basis remapped across a shape change: surviving
// slacks and structural columns are pinned to their old host rows, loose
// columns take any free row (the factorization orders pivots itself),
// uncovered rows take their own slack or an artificial, and dependent
// columns are repaired away during factorization. Surviving at-upper
// assignments are restored before the basic values are computed.
// Feasibility lost to the churn is restored by the composite phase 1 (or
// the dual simplex when the seed stayed dual feasible). ok=false retries
// cold.
func (e *revEngine) solveMapped(mb *MappedBasis) (*Result, bool) {
	sa := &e.ws.seed
	if sa.rowAt == nil {
		sa.rowAt = make(map[string]int, e.m)
	}
	rowAt := sa.rowAt
	clear(rowAt)
	for i, c := range e.p.cons {
		if c.id != "" {
			rowAt[c.id] = i
		}
	}
	for i := range e.basis {
		e.basis[i] = -1
	}
	for _, id := range mb.slackRows {
		i, ok := rowAt[id]
		if !ok || e.basis[i] != -1 {
			continue
		}
		if col := e.slackOf[i]; col >= 0 && !e.inBasis[col] {
			e.basis[i] = col
			e.inBasis[col] = true
		}
	}
	loose := sa.loose[:0]
	for k, col := range mb.cands {
		if col < 0 || col >= e.n {
			return nil, false
		}
		if e.inBasis[col] {
			continue
		}
		if i, ok := rowAt[mb.candRows[k]]; ok && e.basis[i] == -1 {
			e.basis[i] = col
			e.inBasis[col] = true
			continue
		}
		loose = append(loose, col)
	}
	sa.loose = loose[:0]
	free := 0
	place := func(col int) {
		for ; free < e.m; free++ {
			if e.basis[free] == -1 {
				e.basis[free] = col
				if col < e.nTotal {
					e.inBasis[col] = true
				}
				free++
				return
			}
		}
	}
	for _, col := range loose {
		place(col)
	}
	for i := 0; i < e.m; i++ {
		if e.basis[i] != -1 {
			continue
		}
		if col := e.slackOf[i]; col >= 0 && !e.inBasis[col] {
			e.basis[i] = col
			e.inBasis[col] = true
		} else {
			e.basis[i] = e.nTotal + i
		}
	}
	e.seeded = true
	if !e.factorize(true) {
		return nil, false
	}
	if e.hasUB {
		for _, j := range mb.uppers {
			if j >= 0 && j < e.n && !e.inBasis[j] && !math.IsInf(e.ub[j], 1) {
				e.atUpper[j] = true
			}
		}
	}
	e.computeXB()
	st, ok := e.optimize()
	if !ok || st == IterationLimit {
		return nil, false
	}
	if st != Optimal {
		return e.statusResult(st, true, true), true
	}
	return e.finish(true, true), true
}

// solveRevised is the engine's entry point: try the positional seed, then
// the mapped seed, then cold. The Result is arena-backed (see finish);
// ok=false means the engine could not verify an answer.
func (p *Problem) solveRevised(prev *Basis, mapped *MappedBasis) (*Result, bool) {
	e := newRevEngine(p)
	if prev.compatible(e.n, e.ops) {
		if res, ok := e.solveSeeded(prev); ok {
			return res, true
		}
		e = newRevEngine(p)
	} else if mapped != nil && mapped.numVars == e.n && (len(mapped.cands) > 0 || len(mapped.uppers) > 0) {
		if res, ok := e.solveMapped(mapped); ok {
			return res, true
		}
		e = newRevEngine(p)
	}
	return e.solveCold()
}
