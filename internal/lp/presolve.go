package lp

// Presolve: shrink the problem before the engine sees it, and lift the
// reduced solution (and its basis) back to the full shape afterwards.
//
// The pass iterates to a fixpoint over classical reductions:
//
//   - empty rows (consistency-checked, then dropped);
//   - singleton rows: an EQ singleton fixes its column, an LE/GE singleton
//     is either redundant or extracted into an implicit upper bound the
//     bounded-variable simplex enforces without a row (this is what removes
//     every `x <= 1`-style cap row);
//   - implied bound tightening from all-nonnegative LE/EQ rows (a job's
//     budget row sum_m x_jm <= 1 bounds each x_jm even when no explicit cap
//     row exists);
//   - fixed-column substitution into every row's rhs;
//   - empty columns (fixed at the favorable bound, or left to the engine
//     when genuinely unbounded).
//
// Postsolve must preserve the warm-start identities: Basis.Remap and
// SolveFromMapped work on the FULL shape (callers cache full-shape bases
// keyed by column IDs), so the lifted basis covers every original row —
// removed LE/GE rows host their own slack (degenerate-at-zero when the
// bound is tight), an EQ singleton row hosts the column it fixed, and the
// nonbasic-at-upper set rides along in Basis.atUpper. Seeding runs the
// mapping in reverse: a full-shape seed is projected onto the reduced
// problem (the reduction is deterministic, so a basis lifted by the previous
// solve projects back exactly), which is what keeps warm and remapped solves
// as effective with presolve as without it.

import "math"

// presolveState is one solve's reduction record: what was removed, why, and
// every table needed to project seeds down and lift solutions back up. It
// lives in the solve's Workspace and every array below is reused from one
// solve to the next; nothing in it outlives the solve.
type presolveState struct {
	p *Problem

	n, m       int
	reds       int // total reductions (rows removed + cols fixed + bounds)
	infeasible bool

	// Deduplicated rows in raw orientation: row i's terms are
	// rowTerms[rowStart[i]:rowStart[i+1]].
	rowStart []int
	rowTerms []Term
	ops      []Op
	rhs      []float64

	rowRemoved []bool
	rowHost    []int // removed row -> full basic column hosted there (-1 none)
	rowMap     []int // full row -> reduced row (-1 removed)
	keptRows   []int // reduced row -> full row

	colFixed []bool
	fixedVal []float64
	colMap   []int     // full col -> reduced col (-1 fixed)
	keptCols []int     // reduced col -> full col
	ub       []float64 // full-col upper bounds (+Inf = none)

	fullOps      []Op  // full normalized (rhs >= 0) ops
	fullSlackOrd []int // full row -> slack ordinal (-1 for EQ rows)
	slackRow     []int // slack ordinal -> full row

	red      *Problem // the reduced problem (nil until materialized)
	redProb  Problem  // its storage
	redUB    []float64
	redOps   []Op  // reduced normalized ops
	redSlack []int // reduced row -> reduced slack ordinal (-1 for EQ rows)
	redOwner []int // reduced slack ordinal -> reduced row

	// Seeds projected onto the reduced problem, consumed by its solve.
	prevSeed   Basis
	mappedSeed MappedBasis

	scratch   []float64
	touched   []int
	colActive []int
	termBuf   []Term
}

// row returns the deduplicated terms of full row i.
func (ps *presolveState) row(i int) []Term {
	return ps.rowTerms[ps.rowStart[i]:ps.rowStart[i+1]]
}

// minObj returns the objective coefficient of full column j in minimize
// sense.
func (ps *presolveState) minObj(j int) float64 {
	if ps.p.sense == Maximize {
		return -ps.p.obj[j]
	}
	return ps.p.obj[j]
}

// fix pins full column j at v (presolve substitutes it out of every row).
func (ps *presolveState) fix(j int, v float64) {
	if v < 0 && v > -feasTol {
		v = 0
	}
	ps.colFixed[j] = true
	ps.fixedVal[j] = v
	ps.reds++
}

// newPresolve runs the reduction fixpoint on p in p's workspace. Returns nil
// when presolve found nothing to do — the caller then solves the raw problem
// directly.
func newPresolve(p *Problem) *presolveState {
	n := len(p.obj)
	m := len(p.cons)
	if m == 0 || n == 0 {
		return nil
	}
	ps := &p.ws.ps
	ps.p, ps.n, ps.m = p, n, m
	ps.reds, ps.infeasible, ps.red = 0, false, nil
	ps.rowRemoved = grow(ps.rowRemoved, m)
	ps.rowHost = grow(ps.rowHost, m)
	for i := 0; i < m; i++ {
		ps.rowRemoved[i], ps.rowHost[i] = false, 0
	}
	ps.colFixed = grow(ps.colFixed, n)
	ps.fixedVal = grow(ps.fixedVal, n)
	for j := 0; j < n; j++ {
		ps.colFixed[j], ps.fixedVal[j] = false, 0
	}
	ps.ub = grow(ps.ub, n)
	for j := range ps.ub {
		ps.ub[j] = math.Inf(1)
	}
	ps.keptRows, ps.keptCols = ps.keptRows[:0], ps.keptCols[:0]

	// Deduplicate each row's terms once (same accumulation newRevEngine
	// does), keeping raw orientation.
	ps.rowStart = grow(ps.rowStart, m+1)
	ps.ops = grow(ps.ops, m)
	ps.rhs = grow(ps.rhs, m)
	ps.scratch = grow(ps.scratch, n)
	scratch := ps.scratch
	for j := range scratch {
		scratch[j] = 0
	}
	ops, rhs := ps.ops, ps.rhs
	terms := ps.rowTerms[:0]
	touched := ps.touched
	for i, c := range p.cons {
		touched = touched[:0]
		for _, t := range c.terms {
			if scratch[t.Var] == 0 && t.Coeff != 0 {
				touched = append(touched, t.Var)
			}
			scratch[t.Var] += t.Coeff
		}
		ps.rowStart[i] = len(terms)
		for _, v := range touched {
			if scratch[v] != 0 {
				terms = append(terms, Term{Var: v, Coeff: scratch[v]})
			}
			scratch[v] = 0
		}
		ops[i], rhs[i] = c.op, c.rhs
	}
	ps.rowStart[m] = len(terms)
	ps.rowTerms, ps.touched = terms, touched[:0]

	// Slack ordinals over the full shape. LE and GE rows each own exactly
	// one slack and rhs-normalization never turns an inequality into an
	// equality, so the ordinals are orientation-independent.
	ps.fullOps = grow(ps.fullOps, m)
	ps.fullSlackOrd = grow(ps.fullSlackOrd, m)
	ps.slackRow = ps.slackRow[:0]
	for i := range ops {
		op := ops[i]
		if rhs[i] < 0 {
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		ps.fullOps[i] = op
		ps.fullSlackOrd[i] = -1
		if ops[i] != EQ {
			ps.fullSlackOrd[i] = len(ps.slackRow)
			ps.slackRow = append(ps.slackRow, i)
		}
	}

	// The row and column passes read the live fix state, so substituting a
	// fixed column into the rows that hold it is implicit.
	for round := 1; ; round++ {
		changed := false

		if round == 1 {
			// Implied bound tightening: a row with all-nonnegative
			// coefficients and op LE or EQ (or the sign-flipped GE mirror)
			// caps every variable it touches at rhs/a_j. One pass only —
			// bounds derived from bounds can chase tails.
			for i := 0; i < m; i++ {
				row := ps.row(i)
				if len(row) < 2 {
					continue // singletons are the row pass's business
				}
				allPos, allNeg := true, true
				for _, t := range row {
					if t.Coeff < 0 {
						allPos = false
					}
					if t.Coeff > 0 {
						allNeg = false
					}
				}
				b := rhs[i]
				switch {
				case allPos && (ops[i] == LE || ops[i] == EQ) && b >= 0:
					for _, t := range row {
						if t.Coeff > eps {
							if cand := b / t.Coeff; cand < ps.ub[t.Var]-1e-12 {
								ps.ub[t.Var] = cand
								ps.reds++
								changed = true
							}
						}
					}
				case allPos && (ops[i] == LE || ops[i] == EQ) && b < -feasTol:
					// Minimum activity 0 already exceeds the rhs.
					ps.infeasible = true
					return ps
				case allNeg && (ops[i] == GE || ops[i] == EQ) && b <= 0:
					for _, t := range row {
						if t.Coeff < -eps {
							if cand := b / t.Coeff; cand < ps.ub[t.Var]-1e-12 {
								ps.ub[t.Var] = cand
								ps.reds++
								changed = true
							}
						}
					}
				case allNeg && (ops[i] == GE || ops[i] == EQ) && b > feasTol:
					ps.infeasible = true
					return ps
				}
			}
		}

		// Row pass: empty and singleton rows.
		for i := 0; i < m; i++ {
			if ps.rowRemoved[i] {
				continue
			}
			nAct := 0
			var aj float64
			var jAct int
			b := rhs[i]
			for _, t := range ps.row(i) {
				if ps.colFixed[t.Var] {
					b -= t.Coeff * ps.fixedVal[t.Var]
					continue
				}
				nAct++
				aj, jAct = t.Coeff, t.Var
				if nAct > 1 {
					break
				}
			}
			if nAct > 1 {
				continue
			}
			if nAct == 0 {
				switch {
				case ops[i] == LE && b < -feasTol,
					ops[i] == GE && b > feasTol,
					ops[i] == EQ && math.Abs(b) > feasTol:
					ps.infeasible = true
					return ps
				}
				ps.removeRow(i, -1)
				changed = true
				continue
			}
			// Singleton row: a*x_j op b, i.e. x_j op' b/a.
			v := b / aj
			switch {
			case ops[i] == EQ:
				if v < -feasTol || v > ps.ub[jAct]+feasTol {
					ps.infeasible = true
					return ps
				}
				ps.fix(jAct, v)
				ps.removeRow(i, jAct)
				changed = true
			case (ops[i] == LE && aj > 0) || (ops[i] == GE && aj < 0):
				// Upper bound x_j <= v.
				if v < -feasTol {
					ps.infeasible = true
					return ps
				}
				if v < ps.ub[jAct] {
					ps.ub[jAct] = v
				}
				ps.removeRow(i, -2) // host own slack
				changed = true
			default:
				// Lower bound x_j >= v; redundant when v <= 0 (x >= 0).
				if v <= eps {
					ps.removeRow(i, -2)
					changed = true
				}
			}
		}

		// Column pass: bound-fixed and empty columns.
		ps.colActive = grow(ps.colActive, n)
		colActive := ps.colActive
		for j := range colActive {
			colActive[j] = 0
		}
		for i := 0; i < m; i++ {
			if ps.rowRemoved[i] {
				continue
			}
			for _, t := range ps.row(i) {
				if !ps.colFixed[t.Var] {
					colActive[t.Var]++
				}
			}
		}
		for j := 0; j < n; j++ {
			if ps.colFixed[j] {
				continue
			}
			if ps.ub[j] < -feasTol {
				ps.infeasible = true
				return ps
			}
			if ps.ub[j] <= eps {
				ps.fix(j, 0)
				changed = true
				continue
			}
			if colActive[j] == 0 {
				c := ps.minObj(j)
				switch {
				case c >= -eps:
					// Zero or penalized: the canonical (sigma-polished)
					// optimum parks it at zero.
					ps.fix(j, 0)
					changed = true
				case !math.IsInf(ps.ub[j], 1):
					ps.fix(j, ps.ub[j])
					changed = true
				default:
					// Favorable and unbounded: leave it; the engine
					// certifies unboundedness.
				}
			}
		}

		if !changed {
			break
		}
	}

	anyUB := false
	for j := range ps.ub {
		if !ps.colFixed[j] && !math.IsInf(ps.ub[j], 1) {
			anyUB = true
			break
		}
	}
	if ps.reds == 0 && !anyUB {
		return nil
	}

	// Row and column maps.
	ps.rowMap = grow(ps.rowMap, m)
	for i := range ps.rowMap {
		if ps.rowRemoved[i] {
			ps.rowMap[i] = -1
			continue
		}
		ps.rowMap[i] = len(ps.keptRows)
		ps.keptRows = append(ps.keptRows, i)
	}
	ps.colMap = grow(ps.colMap, n)
	for j := range ps.colMap {
		if ps.colFixed[j] {
			ps.colMap[j] = -1
			continue
		}
		ps.colMap[j] = len(ps.keptCols)
		ps.keptCols = append(ps.keptCols, j)
	}
	if len(ps.keptRows) == 0 {
		return ps // trivial: run() solves it without an engine
	}

	// Materialize the reduced problem. Row IDs and ops carry over verbatim;
	// only the rhs absorbs the fixed columns.
	red := &ps.redProb
	red.Reset(p.sense)
	red.noPresolve = true
	red.noDual, red.ws = p.noDual, p.ws
	for _, j := range ps.keptCols {
		red.AddVar(p.obj[j], "")
	}
	buf := ps.termBuf
	for _, i := range ps.keptRows {
		b := rhs[i]
		buf = buf[:0]
		for _, t := range ps.row(i) {
			if ps.colFixed[t.Var] {
				b -= t.Coeff * ps.fixedVal[t.Var]
				continue
			}
			buf = append(buf, Term{Var: ps.colMap[t.Var], Coeff: t.Coeff})
		}
		red.AddConstraintRow(buf, ops[i], b, p.cons[i].id)
	}
	ps.termBuf = buf[:0]
	if anyUB {
		ps.redUB = grow(ps.redUB, len(ps.keptCols))
		red.ub = ps.redUB
		for jr, j := range ps.keptCols {
			red.ub[jr] = ps.ub[j]
		}
	}
	ps.red = red

	// Reduced normalized ops and slack ordinals.
	ps.redOps = grow(ps.redOps, len(red.cons))
	ps.redSlack = grow(ps.redSlack, len(red.cons))
	ps.redOwner = ps.redOwner[:0]
	for ir, c := range red.cons {
		op := c.op
		if c.rhs < 0 {
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		ps.redOps[ir] = op
		ps.redSlack[ir] = -1
		if c.op != EQ {
			ps.redSlack[ir] = len(ps.redOwner)
			ps.redOwner = append(ps.redOwner, ir)
		}
	}
	return ps
}

// removeRow drops row i, recording which full basis column the lifted basis
// hosts there: -2 means the row's own slack, j >= 0 a structural column,
// -1 nothing (a dropped redundant/empty EQ row).
func (ps *presolveState) removeRow(i, host int) {
	ps.rowRemoved[i] = true
	ps.reds++
	switch {
	case host == -2:
		ps.rowHost[i] = ps.n + ps.fullSlackOrd[i]
	case host >= 0:
		ps.rowHost[i] = host
	default:
		if ps.fullSlackOrd[i] >= 0 {
			// An empty inequality row still has a slack of its own.
			ps.rowHost[i] = ps.n + ps.fullSlackOrd[i]
		} else {
			ps.rowHost[i] = -1
		}
	}
}

// run solves the reduced problem (or the trivial remnant) and lifts the
// result. ok=false means the engine could not verify an answer for the
// reduced problem.
func (ps *presolveState) run(prev *Basis, mapped *MappedBasis) (*Result, bool) {
	if ps.infeasible {
		return &Result{Status: Infeasible, PresolveReductions: ps.reds}, true
	}
	if len(ps.keptRows) == 0 {
		return ps.trivial(), true
	}
	rp := ps.mapPrev(prev)
	var rm *MappedBasis
	if rp == nil {
		rm = ps.mapMapped(mapped)
	}
	res, ok := ps.red.solveRevised(rp, rm)
	if !ok {
		return nil, false
	}
	return ps.lift(res), true
}

// trivial handles the every-row-removed remnant: each surviving column sits
// at whichever bound its cost favors; a favorable cost with no upper bound
// is unbounded.
func (ps *presolveState) trivial() *Result {
	x := make([]float64, ps.n)
	var atUpper []int
	for j := 0; j < ps.n; j++ {
		if ps.colFixed[j] {
			x[j] = ps.fixedVal[j]
			continue
		}
		if c := ps.minObj(j); c < -eps {
			if !math.IsInf(ps.ub[j], 1) {
				x[j] = ps.ub[j]
				atUpper = append(atUpper, j)
				continue
			}
			return &Result{Status: Unbounded, PresolveReductions: ps.reds}
		}
	}
	obj := 0.0
	for j, c := range ps.p.obj {
		obj += c * x[j]
	}
	ids := make([]string, ps.m)
	for i, c := range ps.p.cons {
		ids[i] = c.id
	}
	return &Result{
		Status: Optimal, X: x, Objective: obj,
		PresolveReductions: ps.reds,
		Basis: &Basis{
			numVars: ps.n,
			ops:     append([]Op(nil), ps.fullOps...),
			cols:    append([]int(nil), ps.rowHost...),
			rowIDs:  ids,
			atUpper: atUpper,
		},
	}
}

// mapPrev projects a full-shape positional seed onto the reduced problem.
// The projection must be exact or nothing: a basis the previous lifted solve
// produced projects back to precisely the reduced basis the engine
// snapshotted (the reduction is deterministic), anything else returns nil
// and the reduced solve runs cold.
func (ps *presolveState) mapPrev(prev *Basis) *Basis {
	if prev == nil || !prev.compatible(ps.n, ps.fullOps) {
		return nil
	}
	out := &ps.prevSeed
	cols := grow(out.cols, len(ps.keptRows))
	out.cols = cols
	for ir, i := range ps.keptRows {
		c := prev.cols[i]
		switch {
		case c < 0:
			cols[ir] = -1
		case c < ps.n:
			cm := ps.colMap[c]
			if cm < 0 {
				return nil // a presolve-fixed column was basic here
			}
			cols[ir] = cm
		default:
			sOrd := c - ps.n
			if sOrd >= len(ps.slackRow) {
				return nil
			}
			ir2 := ps.rowMap[ps.slackRow[sOrd]]
			if ir2 < 0 || ps.redSlack[ir2] < 0 {
				return nil // the slack's row was removed
			}
			cols[ir] = len(ps.keptCols) + ps.redSlack[ir2]
		}
	}
	atUpper := out.atUpper[:0]
	for _, j := range prev.atUpper {
		if j >= 0 && j < ps.n && ps.colMap[j] >= 0 {
			atUpper = append(atUpper, ps.colMap[j])
		}
	}
	// The seeded solve reads the shape (numVars, ops), the basic columns, the
	// at-upper set and the polished flag; row identities are not consulted
	// on the positional path.
	*out = Basis{
		numVars:  len(ps.keptCols),
		ops:      ps.redOps,
		cols:     cols,
		atUpper:  atUpper,
		polished: prev.polished,
	}
	return out
}

// mapMapped projects a cross-shape seed onto the reduced problem. Row IDs
// pass through verbatim — the reduced problem keeps every surviving row's
// identity, and IDs of removed rows simply fail to resolve, which the mapped
// solve already treats as a departed row.
func (ps *presolveState) mapMapped(mb *MappedBasis) *MappedBasis {
	if mb == nil || mb.numVars != ps.n {
		return nil
	}
	out := &ps.mappedSeed
	*out = MappedBasis{
		numVars: len(ps.keptCols),
		cands:   out.cands[:0], candRows: out.candRows[:0], uppers: out.uppers[:0],
	}
	for k, c := range mb.cands {
		if c < 0 || c >= ps.n {
			return nil
		}
		if cm := ps.colMap[c]; cm >= 0 {
			out.cands = append(out.cands, cm)
			out.candRows = append(out.candRows, mb.candRows[k])
		}
	}
	out.slackRows = mb.slackRows
	for _, c := range mb.uppers {
		if c >= 0 && c < ps.n {
			if cm := ps.colMap[c]; cm >= 0 {
				out.uppers = append(out.uppers, cm)
			}
		}
	}
	if len(out.cands) == 0 && len(out.uppers) == 0 {
		return nil
	}
	return out
}

// lift restores a reduced result to the full shape: fixed columns rejoin the
// solution at their values, the objective is recomputed against the full
// costs, and the basis is expanded so every removed row hosts a basic column
// again (its own slack, or the column an EQ singleton fixed) — keeping the
// snapshot usable by both the positional and the remap seeding paths. X is
// lent from the workspace; the snapshot takes a recycled basis's storage.
func (ps *presolveState) lift(redRes *Result) *Result {
	res := &Result{
		Status:             redRes.Status,
		Iterations:         redRes.Iterations,
		Pivots:             redRes.Pivots,
		WarmStarted:        redRes.WarmStarted,
		Remapped:           redRes.Remapped,
		DualIterations:     redRes.DualIterations,
		Refactorizations:   redRes.Refactorizations,
		PresolveReductions: ps.reds,
	}
	if redRes.Status != Optimal {
		return res
	}
	x := ps.p.ws.lendX(ps.n)
	for j := 0; j < ps.n; j++ {
		if ps.colFixed[j] {
			x[j] = ps.fixedVal[j]
		}
	}
	for jr, j := range ps.keptCols {
		x[j] = redRes.X[jr]
	}
	obj := 0.0
	for j, c := range ps.p.obj {
		obj += c * x[j]
	}
	res.X, res.Objective = x, obj

	rb := redRes.Basis
	if rb == nil {
		return res
	}
	snap := ps.p.ws.snapshot()
	cols := grow(snap.cols, ps.m)
	for i := 0; i < ps.m; i++ {
		ir := ps.rowMap[i]
		if ir < 0 {
			cols[i] = ps.rowHost[i]
			continue
		}
		c := rb.cols[ir]
		switch {
		case c < 0:
			cols[i] = -1
		case c < len(ps.keptCols):
			cols[i] = ps.keptCols[c]
		default:
			sOrd := c - len(ps.keptCols)
			if sOrd >= len(ps.redOwner) {
				cols[i] = -1
				continue
			}
			full := ps.keptRows[ps.redOwner[sOrd]]
			cols[i] = ps.n + ps.fullSlackOrd[full]
		}
	}
	ids := grow(snap.rowIDs, ps.m)
	for i, c := range ps.p.cons {
		ids[i] = c.id
	}
	atUpper := snap.atUpper[:0]
	for _, jr := range rb.atUpper {
		if jr >= 0 && jr < len(ps.keptCols) {
			atUpper = append(atUpper, ps.keptCols[jr])
		}
	}
	*snap = Basis{
		numVars:  ps.n,
		ops:      append(snap.ops[:0], ps.fullOps...),
		cols:     cols,
		rowIDs:   ids,
		atUpper:  atUpper,
		polished: rb.polished,
	}
	res.Basis = snap
	return res
}
