package lp

// The dual simplex driver for warm starts. A shape-preserving reset (same
// jobs, drifted rhs/objective) usually leaves the cached optimal basis dual
// feasible — every nonbasic reduced cost still has the optimal sign — while
// the drifted right-hand side makes a few basic values stray outside their
// bounds. The primal repair path (composite phase 1) fixes that by changing
// the basis until the point is feasible and then re-optimizing; the dual
// simplex instead walks the dual-feasible bases directly, evicting one
// out-of-bounds basic variable per pivot while keeping optimality-signed
// reduced costs, so it lands on the new optimum the moment feasibility is
// restored — no second optimization phase. optimize() selects it for seeded
// solves whose basis kept dual feasibility (or lost primal feasibility in
// only a handful of slots, see dualRepairable).

import "math"

// dualTol is the reduced-cost tolerance for declaring a basis dual feasible.
const dualTol = 1e-7

// dualFeasible reports whether every nonbasic column's reduced cost has the
// optimal sign: >= -dualTol at its lower bound, <= dualTol at its upper.
// Nonzero-cost artificials never appear nonbasic, so only real columns are
// scanned.
func (e *revEngine) dualFeasible() bool {
	y := e.wsY
	for i, c := range e.basis {
		if c < e.nTotal {
			y[i] = e.obj[c]
		} else {
			y[i] = 0
		}
	}
	e.factor.btran(y)
	for j := 0; j < e.nTotal; j++ {
		if e.inBasis[j] {
			continue
		}
		d := e.reducedCost(j, y, false)
		if e.nbAtUpper(j) {
			if d > dualTol {
				return false
			}
		} else if d < -dualTol {
			return false
		}
	}
	return true
}

// dualSimplex restores primal feasibility from a dual-feasible basis: each
// iteration evicts the basic variable with the worst bound violation (below
// zero, or above its upper bound; artificials are bounded to [0,0]) and
// enters the nonbasic column whose reduced-cost-to-pivot ratio keeps every
// reduced cost optimality-signed. Entering steps that overshoot the entering
// column's own bound become bound flips. Returns ok=false on numerical
// trouble or the iteration cap, leaving a consistent (factorized) basis for
// the primal phase 1 to repair instead; dual pivots count in both
// e.iterations and e.dualIters.
// budget > 0 caps the pivots: a dual-infeasible repair attempt (see
// dualRepairable) is expected to need about one eviction per violated slot,
// so its caller leashes it tightly rather than letting a meaningless ratio
// test wander to the stall guard.
func (e *revEngine) dualSimplex(budget int) bool {
	cap := 4*(e.m+e.nTotal) + 100
	if budget > 0 && budget < cap {
		cap = budget
	}
	stallCap := 64 + e.m/2
	// alpha_j of every nonbasic column, kept for the Devex update of the
	// pivot that follows (the scratch slot is free once the CSC is built).
	row := e.arena.floats(wsF64Scratch, e.nTotal)
	bestTotal := math.Inf(1)
	stall := 0
	for it := 0; it < cap; it++ {
		// Leaving row: worst bound violation. The total violation doubles as
		// the progress measure: a polished seed sits on a degenerate optimal
		// face where many reduced costs are zero, and the resulting
		// zero-ratio dual pivots can cycle — when the total stops improving
		// for stallCap iterations, hand the repair to the primal phase 1
		// instead of burning the full iteration cap.
		leave, worst, above := -1, feasTol, false
		total := 0.0
		for i, c := range e.basis {
			v := e.xB[i]
			lo, hi := 0.0, math.Inf(1)
			if c >= e.nTotal {
				hi = 0
			} else if e.hasUB && c < e.n {
				hi = e.ub[c]
			}
			if d := lo - v; d > worst {
				leave, worst, above = i, d, false
			}
			if d := v - hi; d > worst {
				leave, worst, above = i, d, true
			}
			if d := lo - v; d > feasTol {
				total += d
			}
			if d := v - hi; d > feasTol {
				total += d
			}
		}
		if leave < 0 {
			return true
		}
		if total < bestTotal-feasTol {
			bestTotal, stall = total, 0
		} else {
			stall++
			if stall > stallCap {
				return false
			}
		}
		// rho = B^-T e_leave gives the pivot row; alpha_j = rho . a_j.
		rho := e.btranRow(leave)
		// Current duals for the ratio test.
		y := e.wsY
		for i, c := range e.basis {
			if c < e.nTotal {
				y[i] = e.obj[c]
			} else {
				y[i] = 0
			}
		}
		e.factor.btran(y)

		// Entering column: among columns whose movement direction pushes
		// xB[leave] back toward its violated bound, the minimum |d|/|alpha|
		// ratio keeps dual feasibility; ties prefer the larger pivot, then
		// the smaller index (determinism).
		enter, alphaQ, bestRatio := -1, 0.0, 0.0
		for j := 0; j < e.nTotal; j++ {
			if e.inBasis[j] {
				continue
			}
			var a float64
			for _, en := range e.cols[j] {
				a += rho[en.row] * en.val
			}
			row[j] = a
			atUp := e.nbAtUpper(j)
			// Below its bound (v < 0): xB[leave] must increase, so the
			// entering change -alpha_j * dx_j must be positive; above its
			// upper: negative. dx_j >= 0 from lower, <= 0 from upper.
			var ok bool
			if above {
				ok = (!atUp && a > eps) || (atUp && a < -eps)
			} else {
				ok = (!atUp && a < -eps) || (atUp && a > eps)
			}
			if !ok {
				continue
			}
			d := e.reducedCost(j, y, false)
			r := math.Abs(d) / math.Abs(a)
			if enter < 0 || r < bestRatio-eps ||
				(r < bestRatio+eps && (math.Abs(a) > math.Abs(alphaQ)+eps ||
					(math.Abs(a) >= math.Abs(alphaQ)-eps && j < enter))) {
				enter, alphaQ, bestRatio = j, a, r
			}
		}
		if enter < 0 {
			// No column can push the row back: the primal phase 1 settles
			// infeasibility properly.
			return false
		}
		if math.Abs(alphaQ) < pivotTol {
			return false
		}
		v := e.xB[leave]
		target := 0.0
		var leaveToUpper bool
		if above {
			c := e.basis[leave]
			if c >= e.nTotal {
				target = 0
			} else {
				target = e.ub[c]
				leaveToUpper = true
			}
		}
		// x_enter moves by delta (signed from its current bound value).
		delta := (v - target) / alphaQ
		base := 0.0
		if e.nbAtUpper(enter) {
			base = e.ub[enter]
		}
		if u := e.colUB(enter); !math.IsInf(u, 1) && math.Abs(delta) > u+feasTol {
			// The entering column hits its own opposite bound first: flip it
			// across, update the basic values, and retry the same row.
			w := e.ftranCol(enter)
			step := u * float64(sign(delta))
			for i := range e.xB {
				e.xB[i] -= step * w[i]
			}
			e.atUpper[enter] = !e.atUpper[enter]
			e.iterations++
			e.dualIters++
			continue
		}
		w := e.ftranCol(enter)
		if math.Abs(w[leave]) < pivotTol {
			return false
		}
		enterVal := base + delta
		if !e.applyPivotB(enter, leave, delta, enterVal, w, row, leaveToUpper) {
			return false
		}
		e.dualIters++
	}
	return false
}

func sign(v float64) int {
	if v < 0 {
		return -1
	}
	return 1
}
