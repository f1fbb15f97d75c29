package lp

import "gavel/internal/linalg"

// Workspace is the arena every revised-engine solve runs in. It owns, and
// reuses verbatim from one solve to the next:
//
//   - the engine state of the solve and of its vertex-polish clone (two
//     disjoint banks, since both are live at once): the CSC column slab,
//     every dense work vector, the basis factorization — an in-place LU
//     (linalg.LU.Factorize) plus the eta file as one index/value slab — and
//     the phase-1 breakpoint list;
//   - presolve's row/column work arrays, its deduplicated row slab and the
//     reduced Problem it hands the engine, plus the seeds projected onto it;
//   - the lookup tables of Basis.Remap and of the mapped seed placement.
//
// Result.X is lent from the arena too, valid until its next solve; the Basis
// snapshot is the caller's, in a recycled basis's storage when there is one.
//
// Buffers grow monotonically to the largest problem seen. Attach one arena
// to every problem solved in a loop (SetWorkspace) and a steady-state solve
// allocates only its Result and snapshot; a problem without one gets a
// private arena for the single solve. No solve reads what an earlier one
// left behind, so any caller may reuse an arena another grew:
// policy.SolveContext borrows one from a process-wide free list per
// Allocate. A Workspace is not safe for concurrent solves.
type Workspace struct {
	lin  linalg.Scratch
	eng  [2]engineArena // 0: the solve's engine, 1: its polish clone
	ps   presolveState
	seed seedArena
	x    []float64 // the last solve's Result.X
	// recycled is a basis given up (Recycle), for the next snapshot.
	recycled *Basis
	// failNext makes the arena's next failNext engine attempts report
	// failure, once passNext more have run. Set only from _test.go files: no
	// well-conditioned problem reaches the recovery path on its own. They
	// live here and not on the Problem because a policy rebuilds its Problem
	// on every reset.
	passNext, failNext int
}

// Recycle hands b's storage to the arena's next basis snapshot. The caller
// and everyone it shared b with must not read b again.
func (ws *Workspace) Recycle(b *Basis) { ws.recycled = b }

// snapshot returns the Basis a snapshot is written into.
func (ws *Workspace) snapshot() *Basis {
	b := ws.recycled
	ws.recycled = nil
	if b == nil {
		b = new(Basis)
	}
	return b
}

// lendX returns the arena's Result.X buffer resized to n and zeroed.
func (ws *Workspace) lendX(n int) []float64 {
	ws.x = grow(ws.x, n)
	clear(ws.x)
	return ws.x
}

// engineArena is one engine's bank of reusable storage.
type engineArena struct {
	engine revEngine
	factor basisFactor

	f64   [wsF64Count][]float64
	ints  [wsIntCount][]int
	bools [wsBoolCount][]bool
	ops   []Op

	colSlab []colEntry // CSC entries for structural + slack columns
	colHdr  [][]colEntry
	touched []int // rows' distinct variables while building the CSC
	spCols  []linalg.SparseCol
	spRows  []int
	spVals  []float64
	bps     []phase1Bp

	// The result the engine assembles before it is lifted or detached.
	res      Result
	resX     []float64
	resBasis Basis
}

// seedArena holds the tables that carry a basis across shapes: Remap's
// identity lookups and the MappedBasis it produces, and the row-identity
// lookup of the mapped seed placement.
type seedArena struct {
	colAt      map[ColumnID]int
	seen       []bool
	slackOwner []int
	mapped     MappedBasis
	rowAt      map[string]int
	loose      []int
}

// Buffer slots of an engine bank.
const (
	wsF64Y = iota
	wsF64W
	wsF64Z
	wsF64XB
	wsF64RHS
	wsF64Obj
	wsF64UB
	wsF64Devex
	wsF64Scratch // the CSC build's row accumulator, the dual's pivot row, the polish's x
	wsF64Count
)

const (
	wsIntBasis = iota
	wsIntSlackOf
	wsIntColCount
	wsIntCount
)

const (
	wsBoolInBasis = iota
	wsBoolAtUpper
	wsBoolCount
)

// grow returns s resized to n elements, reallocating only when its capacity
// falls short — exactly on first use (most snapshots are never recycled, and
// a private arena lives for one solve), with a quarter of headroom after, so
// a problem that creeps up one job at a time does not reallocate the arena
// at every step. Contents are unspecified.
func grow[T any](s []T, n int) []T {
	switch {
	case cap(s) >= n:
		return s[:n]
	case cap(s) == 0:
		return make([]T, n)
	}
	return make([]T, n, n+n/4)
}

func (a *engineArena) floats(slot, n int) []float64 {
	a.f64[slot] = grow(a.f64[slot], n)
	return a.f64[slot]
}

func (a *engineArena) intsBuf(slot, n int) []int {
	a.ints[slot] = grow(a.ints[slot], n)
	return a.ints[slot]
}

func (a *engineArena) boolsBuf(slot, n int) []bool {
	a.bools[slot] = grow(a.bools[slot], n)
	return a.bools[slot]
}

// colEntries returns a slab with capacity for n CSC entries, length 0.
func (a *engineArena) colEntries(n int) []colEntry {
	if cap(a.colSlab) < n {
		a.colSlab = make([]colEntry, 0, n+n/4)
	}
	return a.colSlab[:0]
}

// sparseCols returns headers and row/val slabs for a basis factorization
// with m columns and at most nnz entries.
func (a *engineArena) sparseCols(m, nnz int) ([]linalg.SparseCol, []int, []float64) {
	a.spCols = grow(a.spCols, m)
	a.spRows = grow(a.spRows, nnz)
	a.spVals = grow(a.spVals, nnz)
	return a.spCols, a.spRows, a.spVals
}
