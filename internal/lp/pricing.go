package lp

// Pricing — the engine's choice of entering column — is Devex (Harris 1973),
// the practical approximation of steepest edge: entering columns are scored
// by d_j^2 / gamma_j, where gamma_j approximates the squared norm of the
// column's pivoting direction, and the weights are updated from each pivot's
// BTRAN row. It costs a full pricing scan per iteration but picks directions
// that make real progress, which on Gavel's long thin allocation programs is
// worth far more than the scan (revEngine.priceEnter; Bland's rule takes over
// for anti-cycling). Pricing is about speed, never about the answer: the
// vertex polish makes the reported x independent of the walk.

// devexReset is the weight magnitude past which the reference framework has
// drifted too far and every weight snaps back to 1 (a fresh reference frame).
const devexReset = 1e7

// devexInit (re)initializes the Devex reference weights to 1.
func (e *revEngine) devexInit() {
	for j := range e.devex {
		e.devex[j] = 1
	}
}

// devexUpdate folds one pivot into the reference weights. It must run
// BEFORE the basis arrays and factors absorb the pivot: the pivot is about to
// replace basis position r with column enter, whose FTRAN image under the
// current basis is w (so the pivot element is alpha_q = w[r]). The BTRAN row
// rho = B^-T e_r gives every nonbasic column's alpha_j = rho . a_j, and the
// textbook Devex update is gamma_j = max(gamma_j, (alpha_j/alpha_q)^2 *
// gamma_q). The leaving variable re-enters the nonbasic set with weight
// max(gamma_q/alpha_q^2, 1).
func (e *revEngine) devexUpdate(enter, r int, w []float64) {
	if e.devex == nil {
		return // the polish clone keeps no weights
	}
	alphaQ := w[r]
	if alphaQ == 0 {
		return
	}
	gammaQ := e.devex[enter]
	rho := e.wsZ
	for i := range rho {
		rho[i] = 0
	}
	rho[r] = 1
	e.factor.btran(rho)
	scale := gammaQ / (alphaQ * alphaQ)
	reset := false
	for j := 0; j < e.nTotal; j++ {
		if e.inBasis[j] || j == enter {
			continue
		}
		var a float64
		for _, en := range e.cols[j] {
			a += rho[en.row] * en.val
		}
		if a == 0 {
			continue
		}
		if cand := a * a * scale; cand > e.devex[j] {
			e.devex[j] = cand
			if cand > devexReset {
				reset = true
			}
		}
	}
	if old := e.basis[r]; old >= 0 && old < e.nTotal {
		if scale > 1 {
			e.devex[old] = scale
		} else {
			e.devex[old] = 1
		}
	}
	if reset {
		e.devexInit()
	}
}
