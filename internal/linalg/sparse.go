// Sparse kernels for the revised simplex engine: compressed sparse columns,
// and an LU factorization with Markowitz-style pivot selection plus the
// FTRAN/BTRAN triangular solves the simplex engine runs every iteration.
//
// The factorization is a left-looking (Gilbert-Peierls) sparse LU: columns
// are processed in ascending-nonzero-count order — the static half of the
// Markowitz (r_i-1)(c_j-1) fill heuristic — and within each column the pivot
// row is chosen among the numerically acceptable candidates (threshold
// partial pivoting) as the one with the fewest original-matrix nonzeros —
// the dynamic half. On Gavel's basis matrices (allocation columns carry two
// nonzeros, slack columns one) this keeps fill-in near zero, so a
// factorization costs O(nnz) rather than the O(m^3) of dense elimination.
package linalg

import (
	"fmt"
	"sort"
)

// SparseCol is one column of a sparse matrix: parallel row-index and value
// slices. Rows need not be sorted; duplicate rows are not allowed.
type SparseCol struct {
	Rows []int
	Vals []float64
}

// SingularError reports a (numerically) rank-deficient basis: column Col of
// the input was linearly dependent on the columns pivoted before it.
// FreeRows lists the rows not yet pivoted when the dependency surfaced; a
// caller repairing the basis can re-cover any of them with a unit column.
// The value LU.Factorize returns belongs to its Scratch and is valid until
// the next factorization with it.
type SingularError struct {
	Col      int
	FreeRows []int
}

func (e *SingularError) Error() string {
	return fmt.Sprintf("linalg: singular basis at column %d", e.Col)
}

// luEntry is one off-diagonal entry of an LU factor.
type luEntry struct {
	idx int // original row index (L) or pivot step index (U)
	val float64
}

// LU is a sparse LU factorization of a square matrix B with row and column
// permutations: processing columns q[0..n) in order, pivoting rows p[0..n).
// FTran and BTran are the simplex engine's forward and transpose solves.
//
// Each factor is one contiguous entry slab plus per-step offsets (step k's
// entries are ent[start[k]:start[k+1]], in the order the elimination
// produced them), so the triangular solves stream through memory instead of
// chasing one slice header per column, and Factorize can rebuild the
// factorization in place: an LU grows to the largest basis it has held and
// never allocates again.
type LU struct {
	n         int
	p         []int     // step -> pivot row
	q         []int     // step -> original column
	stepOfRow []int     // row -> step
	lstart    []int     // step k's L entries are lent[lstart[k]:lstart[k+1]]
	lent      []luEntry // (row, multiplier) below the diagonal
	ustart    []int     // step k's U entries are uent[ustart[k]:ustart[k+1]]
	uent      []luEntry // (step s<k, u[s][k]) above the diagonal
	diag      []float64 // u[k][k]
	z         []float64 // solve scratch, step-indexed
}

const (
	// luRelTol is the threshold-partial-pivoting factor: a pivot candidate
	// must be at least this fraction of the column's largest magnitude.
	luRelTol = 0.1
	// luAbsTol below which a column is treated as numerically empty.
	luAbsTol = 1e-11
)

// Scratch holds the transient workspaces of LU.Factorize, so a caller that
// refactorizes every few dozen pivots (the revised simplex engine) reuses
// them instead of reallocating per factorization. The zero value is ready to
// use; a Scratch is not safe for concurrent factorizations.
type Scratch struct {
	x       []float64
	seen    []int
	visited []int
	touched []int
	reach   []int
	stack   []int
	order   []int
	bucket  []int
	rowCnt  []int
	// singular is the error value Factorize returns for a dependent column,
	// reused so that a basis repair loop (factorize, replace the dependent
	// column, retry) allocates nothing either.
	singular SingularError
}

// growF and growI resize s to n elements, reallocating (with a quarter of
// headroom, so a slowly growing basis does not reallocate at every size)
// only when the capacity falls short. Contents are unspecified.
func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n, n+n/4)
	}
	return s[:n]
}

func growI(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n, n+n/4)
	}
	return s[:n]
}

// FactorizeSparse computes the LU factorization of the n x n matrix whose
// columns are cols. It returns a *SingularError when a column turns out
// linearly dependent on the columns already pivoted.
func FactorizeSparse(n int, cols []SparseCol) (*LU, error) {
	f := new(LU)
	if err := f.Factorize(n, cols, new(Scratch)); err != nil {
		return nil, err
	}
	return f, nil
}

// Factorize rebuilds f as the LU factorization of the n x n matrix whose
// columns are cols, reusing f's storage and sc's workspaces: once both have
// grown to the largest n seen, a refactorization allocates nothing. On error
// (a *SingularError for a dependent column) f holds no usable factorization.
func (f *LU) Factorize(n int, cols []SparseCol, sc *Scratch) error {
	if len(cols) != n {
		return fmt.Errorf("linalg: FactorizeSparse wants %d columns, got %d", n, len(cols))
	}
	f.n = n
	f.p, f.q, f.stepOfRow = growI(f.p, n), growI(f.q, n), growI(f.stepOfRow, n)
	f.lstart, f.ustart = growI(f.lstart, n+1), growI(f.ustart, n+1)
	f.diag, f.z = growF(f.diag, n), growF(f.z, n)
	f.lent, f.uent = f.lent[:0], f.uent[:0]
	for i := range f.stepOfRow {
		f.stepOfRow[i] = -1
	}

	// Static Markowitz ordering: columns by ascending nonzero count (a
	// stable counting sort, so equal counts keep their input order);
	// original row counts for the dynamic row choice.
	sc.rowCnt = growI(sc.rowCnt, n)
	rowCount := sc.rowCnt
	for i := range rowCount {
		rowCount[i] = 0
	}
	maxCnt := 0
	for j := range cols {
		if c := len(cols[j].Rows); c > maxCnt {
			maxCnt = c
		}
		for _, r := range cols[j].Rows {
			if r < 0 || r >= n {
				return fmt.Errorf("linalg: column %d references row %d of %d", j, r, n)
			}
			rowCount[r]++
		}
	}
	sc.bucket = growI(sc.bucket, maxCnt+2)
	bucket := sc.bucket
	for i := range bucket {
		bucket[i] = 0
	}
	for j := range cols {
		bucket[len(cols[j].Rows)+1]++
	}
	for c := 1; c < len(bucket); c++ {
		bucket[c] += bucket[c-1]
	}
	sc.order = growI(sc.order, n)
	order := sc.order
	for j := range cols {
		c := len(cols[j].Rows)
		order[bucket[c]] = j
		bucket[c]++
	}

	sc.x = growF(sc.x, n)
	sc.seen = growI(sc.seen, n)
	sc.visited = growI(sc.visited, n)
	x := sc.x // dense numeric workspace, row-indexed
	seen := sc.seen
	visited := sc.visited
	for i := 0; i < n; i++ {
		x[i], seen[i], visited[i] = 0, 0, 0
	}
	touched := sc.touched[:0] // rows touched this column
	reach := sc.reach[:0]     // pivot steps reached this column
	stack := sc.stack[:0]     // depth-first search frontier
	// Hand grown buffers back on every exit below.
	keep := func() { sc.touched, sc.reach, sc.stack = touched[:0], reach[:0], stack[:0] }

	for k, c := range order {
		// Scatter column c and find the pivot steps its solve touches: every
		// step reachable from the column's pivoted rows through L. Only the
		// set matters — it is sorted below — so the search order is free.
		touched = touched[:0]
		reach = reach[:0]
		for t, r := range cols[c].Rows {
			x[r] = cols[c].Vals[t]
			seen[r] = 1
			touched = append(touched, r)
			if s := f.stepOfRow[r]; s >= 0 && visited[s] == 0 {
				visited[s] = 1
				stack = append(stack, s)
				for len(stack) > 0 {
					s := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					reach = append(reach, s)
					for _, e := range f.lent[f.lstart[s]:f.lstart[s+1]] {
						if s2 := f.stepOfRow[e.idx]; s2 >= 0 && visited[s2] == 0 {
							visited[s2] = 1
							stack = append(stack, s2)
						}
					}
				}
			}
		}
		// Dependencies in L x = b only flow from earlier steps to later ones,
		// so ascending step order is a valid elimination order.
		sort.Ints(reach)
		for _, s := range reach {
			v := x[f.p[s]]
			if v == 0 {
				continue
			}
			// Any pivoted row fill lands in already has its step in reach:
			// the search visited it through this very edge.
			for _, e := range f.lent[f.lstart[s]:f.lstart[s+1]] {
				if seen[e.idx] == 0 {
					seen[e.idx] = 1
					x[e.idx] = 0
					touched = append(touched, e.idx)
				}
				x[e.idx] -= e.val * v
			}
		}

		// Pivot choice: threshold partial pivoting, then fewest original
		// nonzeros (Markowitz row score) among the acceptable candidates.
		maxAbs := 0.0
		for _, r := range touched {
			if f.stepOfRow[r] < 0 {
				if a := abs(x[r]); a > maxAbs {
					maxAbs = a
				}
			}
		}
		if maxAbs < luAbsTol {
			se := &sc.singular
			se.Col, se.FreeRows = c, se.FreeRows[:0]
			for r := 0; r < n; r++ {
				if f.stepOfRow[r] < 0 {
					se.FreeRows = append(se.FreeRows, r)
				}
			}
			keep()
			return se
		}
		piv, pivCount := -1, n+1
		for _, r := range touched {
			if f.stepOfRow[r] >= 0 {
				continue
			}
			if a := abs(x[r]); a >= luRelTol*maxAbs && (rowCount[r] < pivCount || (rowCount[r] == pivCount && (piv < 0 || r < piv))) {
				piv, pivCount = r, rowCount[r]
			}
		}
		pv := x[piv]
		f.p[k], f.q[k], f.diag[k] = piv, c, pv
		f.stepOfRow[piv] = k
		f.lstart[k], f.ustart[k] = len(f.lent), len(f.uent)
		for _, r := range touched {
			v := x[r]
			x[r] = 0
			seen[r] = 0
			if r == piv || v == 0 {
				continue
			}
			if s := f.stepOfRow[r]; s >= 0 && s != k {
				f.uent = append(f.uent, luEntry{idx: s, val: v})
			} else {
				f.lent = append(f.lent, luEntry{idx: r, val: v / pv})
			}
		}
		f.lstart[k+1], f.ustart[k+1] = len(f.lent), len(f.uent)
		for _, s := range reach {
			visited[s] = 0
		}
	}
	keep()
	return nil
}

// N returns the dimension of the factored matrix.
func (f *LU) N() int { return f.n }

// NNZ returns the number of stored factor entries (fill-in diagnostics).
func (f *LU) NNZ() int { return len(f.lent) + len(f.uent) + f.n }

// FTran solves B w = b. b is indexed by matrix row; the result is written to
// w indexed by matrix column (w[j] is the solution component of column j).
// b is consumed as scratch; w may alias b.
func (f *LU) FTran(b, w []float64) {
	p, n := f.p, f.n
	// Forward eliminate: apply the stored row operations to b. Step k's
	// entries follow step k-1's in the slab, so one cursor walks it.
	lent, lstart := f.lent, f.lstart
	for k, lo := 0, 0; k < n; k++ {
		hi := lstart[k+1]
		if v := b[p[k]]; v != 0 {
			for _, e := range lent[lo:hi] {
				b[e.idx] -= e.val * v
			}
		}
		lo = hi
	}
	// Backward substitution by columns of U.
	z, diag := f.z, f.diag
	uent, ustart := f.uent, f.ustart
	for k, hi := n-1, len(uent); k >= 0; k-- {
		lo := ustart[k]
		zk := b[p[k]] / diag[k]
		z[k] = zk
		if zk != 0 {
			for _, e := range uent[lo:hi] {
				b[p[e.idx]] -= e.val * zk
			}
		}
		hi = lo
	}
	for k, q := range f.q[:n] {
		w[q] = z[k]
	}
}

// BTran solves Bᵀ y = c. c is indexed by matrix column; the result is
// written to y indexed by matrix row. c is left untouched; y may alias c.
func (f *LU) BTran(c, y []float64) {
	p, q, n := f.p, f.q, f.n
	// Forward substitution on Uᵀ (gather form: step k holds u[s][k], s<k).
	z, diag := f.z, f.diag
	uent, ustart := f.uent, f.ustart
	for k, lo := 0, 0; k < n; k++ {
		hi := ustart[k+1]
		s := c[q[k]]
		for _, e := range uent[lo:hi] {
			s -= e.val * z[e.idx]
		}
		z[k] = s / diag[k]
		lo = hi
	}
	for i := range y {
		y[i] = 0
	}
	for k, r := range p[:n] {
		y[r] = z[k]
	}
	// Transposed row operations, in reverse order.
	lent, lstart := f.lent, f.lstart
	for k, hi := n-1, len(lent); k >= 0; k-- {
		lo := lstart[k]
		if lo != hi {
			s := y[p[k]]
			for _, e := range lent[lo:hi] {
				s -= e.val * y[e.idx]
			}
			y[p[k]] = s
		}
		hi = lo
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
