package lp

// This file holds the basis factorization for the revised simplex engine: a
// sparse LU of the basis matrix (internal/linalg) extended by product-form
// eta updates, so a pivot costs O(nnz) instead of a refactorization, with a
// periodic refresh that bounds both eta-file growth and numerical drift.

import "gavel/internal/linalg"

// etaVec is one product-form update: the entering column's basis-space image
// w = B⁻¹ a_enter, stored sparse, replacing basis position pos. Its
// off-pivot entries are ind[start:end] / val[start:end] of the factor's eta
// slab.
type etaVec struct {
	pos        int
	wr         float64 // w[pos], the pivot element
	start, end int
}

// basisFactor is a factorization of the current basis: an LU of the basis at
// the last refresh plus the etas accumulated since. FTRAN/BTRAN apply the LU
// solves and then the eta file (in opposite orders). The LU is refactorized
// in place and the eta file is one index/value slab, so a factor that has
// grown to its working size never allocates.
type basisFactor struct {
	lu   linalg.LU
	etas []etaVec
	ind  []int // positions != pos with nonzero w, all etas back to back
	val  []float64
}

const (
	// refactorEvery bounds the eta file length before a refresh.
	refactorEvery = 64
	// etaDropTol below which an eta component is not worth storing.
	etaDropTol = 1e-12
)

// clearEtas empties the eta file after a fresh factorization of lu.
func (bf *basisFactor) clearEtas() {
	bf.etas = bf.etas[:0]
	bf.ind = bf.ind[:0]
	bf.val = bf.val[:0]
}

// dirty reports whether any etas have accumulated since the last refresh.
func (bf *basisFactor) dirty() bool { return len(bf.etas) > 0 }

// needRefresh reports whether the eta file is long or dense enough that a
// refactorization is cheaper than carrying it further.
func (bf *basisFactor) needRefresh(m int) bool {
	return len(bf.etas) >= refactorEvery || len(bf.ind)+len(bf.etas) > 8*m+256
}

// push appends the eta for the pivot that replaced basis position pos with a
// column whose basis-space image is w (dense, position-indexed).
func (bf *basisFactor) push(pos int, w []float64) {
	start := len(bf.ind)
	for i, v := range w {
		if i != pos && (v > etaDropTol || v < -etaDropTol) {
			bf.ind = append(bf.ind, i)
			bf.val = append(bf.val, v)
		}
	}
	bf.etas = append(bf.etas, etaVec{pos: pos, wr: w[pos], start: start, end: len(bf.ind)})
}

// ftran solves B w = b in place: x enters indexed by constraint row and
// leaves indexed by basis position.
func (bf *basisFactor) ftran(x []float64) {
	bf.lu.FTran(x, x)
	for t := range bf.etas {
		e := &bf.etas[t]
		zr := x[e.pos] / e.wr
		x[e.pos] = zr
		if zr == 0 {
			continue
		}
		val := bf.val[e.start:e.end]
		for i, idx := range bf.ind[e.start:e.end] {
			x[idx] -= val[i] * zr
		}
	}
}

// btran solves Bᵀ y = c in place: x enters indexed by basis position and
// leaves indexed by constraint row.
func (bf *basisFactor) btran(x []float64) {
	for t := len(bf.etas) - 1; t >= 0; t-- {
		e := &bf.etas[t]
		s := x[e.pos]
		val := bf.val[e.start:e.end]
		for i, idx := range bf.ind[e.start:e.end] {
			s -= val[i] * x[idx]
		}
		x[e.pos] = s / e.wr
	}
	bf.lu.BTran(x, x)
}
