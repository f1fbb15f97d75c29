package lp

// The reference: the textbook dense two-phase tableau simplex this package
// solved with before the revised engine, kept as the independent oracle the
// engine is fuzzed against. It is the cold path of the deleted dense engine,
// moved here verbatim — no presolve, no bounds, no warm or remapped seeding —
// and testdata/dense_reference_golden.json, recorded from that engine at the
// last commit that had it, pins that the move changed nothing: status,
// objective bits and iteration count of 300 fuzzed problems and Beale's.
// O(m·n) per pivot and per problem, which is why it is only a test's oracle.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
)

// referenceSolve solves p cold on the dense tableau.
func referenceSolve(p *Problem) *Result {
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
			return &Result{Status: Infeasible, Iterations: iterations, Pivots: pivots}
		}
		if st == IterationLimit {
			return &Result{Status: IterationLimit, Iterations: iterations, Pivots: pivots}
		}
		if -cost[total] > 1e-7 {
			return &Result{Status: Infeasible, Iterations: iterations, Pivots: pivots}
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
		return &Result{Status: st, Iterations: iterations, Pivots: pivots}
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
		Basis: p.snapshotBasis(new(Basis), ops, basis),
	}
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

const referenceGoldenPath = "testdata/dense_reference_golden.json"

// referenceGoldenCase is one problem's answer from the deleted dense engine.
type referenceGoldenCase struct {
	Name       string `json:"name"`
	Status     string `json:"status"`
	Objective  string `json:"objective"` // IEEE-754 bits, hex
	Iterations int    `json:"iterations"`
}

type referenceGolden struct {
	Arch  string                `json:"arch"`
	Cases []referenceGoldenCase `json:"cases"`
	next  int
}

func loadReferenceGolden(t *testing.T) *referenceGolden {
	t.Helper()
	data, err := os.ReadFile(referenceGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	g := new(referenceGolden)
	if err := json.Unmarshal(data, g); err != nil {
		t.Fatalf("%s: %v", referenceGoldenPath, err)
	}
	return g
}

// check holds the reference's answer for the file's next case to the
// recorded one, bit for bit. The bits are amd64's (other architectures may
// fuse multiply-adds); status is compared everywhere.
func (g *referenceGolden) check(t *testing.T, name string, res *Result) {
	t.Helper()
	if g.next >= len(g.Cases) {
		t.Fatalf("%s: golden has only %d cases", name, len(g.Cases))
	}
	want := g.Cases[g.next]
	g.next++
	got := referenceGoldenCase{
		Name: name, Status: res.Status.String(),
		Objective:  fmt.Sprintf("%016x", math.Float64bits(res.Objective)),
		Iterations: res.Iterations,
	}
	if runtime.GOARCH != g.Arch {
		got.Objective, got.Iterations = want.Objective, want.Iterations
	}
	if got != want {
		t.Fatalf("reference diverges from the deleted dense engine:\n got  %+v\n want %+v", got, want)
	}
}

// bealeProblem is Beale's classic cycling LP: pure Dantzig pricing loops
// forever on it. Optimum -0.05.
func bealeProblem() *Problem {
	p := NewProblem(Minimize)
	x1 := p.AddVar(-0.75, "x1")
	x2 := p.AddVar(150, "x2")
	x3 := p.AddVar(-0.02, "x3")
	x4 := p.AddVar(6, "x4")
	p.AddConstraint([]Term{{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}}, LE, 0)
	p.AddConstraint([]Term{{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}}, LE, 0)
	p.AddConstraint([]Term{{x3, 1}}, LE, 1)
	return p
}
