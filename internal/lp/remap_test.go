package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fakeJob models one Gavel job's LP footprint: an objective coefficient, a
// coefficient in every shared capacity row, and its own x <= 1 budget row.
// The identity is the ColumnID, so job churn (drop/add) reshapes the LP the
// same way arrivals and departures reshape an allocation program.
type fakeJob struct {
	id  ColumnID
	obj float64
	row []float64
}

func newFakeJob(rng *rand.Rand, id ColumnID, numRows int) fakeJob {
	j := fakeJob{id: id, obj: 0.1 + rng.Float64(), row: make([]float64, numRows)}
	for i := range j.row {
		j.row[i] = 0.1 + rng.Float64()
	}
	return j
}

// buildJobLP assembles: maximize sum obj_j x_j, subject to the shared
// capacity rows sum row_j[i] x_j <= rhs[i], one x_j <= 1 budget row per job,
// and a mild GE floor on the first job so remapped seeds also exercise the
// surplus-column path. Returns the problem and its column IDs.
func buildJobLP(jobs []fakeJob, rhs []float64) (*Problem, []ColumnID) {
	p := NewProblem(Maximize)
	ids := make([]ColumnID, len(jobs))
	for v, j := range jobs {
		p.AddVar(j.obj, string(j.id))
		ids[v] = j.id
	}
	for i, b := range rhs {
		terms := make([]Term, len(jobs))
		for v, j := range jobs {
			terms[v] = Term{Var: v, Coeff: j.row[i]}
		}
		p.AddConstraint(terms, LE, b)
	}
	for v := range jobs {
		p.AddConstraint([]Term{{Var: v, Coeff: 1}}, LE, 1)
	}
	if len(jobs) > 0 {
		p.AddConstraint([]Term{{Var: 0, Coeff: 1}}, GE, 0.01)
	}
	return p, ids
}

func jitterRHS(rng *rand.Rand, rhs []float64, frac float64) []float64 {
	out := make([]float64, len(rhs))
	for i, b := range rhs {
		out[i] = b * (1 + frac*(2*rng.Float64()-1))
	}
	return out
}

// checkParity holds a solve to the answer of a cold (or reference) solve of
// the same problem: equal status, and when optimal an objective equal within
// 1e-9 relative.
func checkParity(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Status != want.Status {
		t.Fatalf("%s: status %v, want %v", label, got.Status, want.Status)
	}
	if want.Status == Optimal {
		scale := 1 + math.Abs(want.Objective)
		if diff := math.Abs(got.Objective - want.Objective); diff > 1e-9*scale {
			t.Fatalf("%s: objective %v, want %v (diff %v)", label, got.Objective, want.Objective, diff)
		}
	}
}

// TestRemapMatchesColdAcrossJobChurn is the remap correctness property:
// across randomized job arrivals and departures (which change both the
// variable count and the constraint-row count), SolveFromMapped and a cold
// Solve must agree on status and objective within 1e-9 relative, while the
// mapped path engages often enough, and cheaply enough, to matter.
func TestRemapMatchesColdAcrossJobChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	remapped, totalMappedIters, totalColdIters := 0, 0, 0
	nextID := 0
	for trial := 0; trial < 200; trial++ {
		numRows := 2 + rng.Intn(3)
		n := 4 + rng.Intn(10)
		jobs := make([]fakeJob, n)
		for v := range jobs {
			jobs[v] = newFakeJob(rng, ColumnID(fmt.Sprintf("j%d", nextID)), numRows)
			nextID++
		}
		rhs := make([]float64, numRows)
		for i := range rhs {
			rhs[i] = 1 + float64(n)/4*rng.Float64()
		}
		base, baseIDs := buildJobLP(jobs, rhs)
		res0, err := base.Solve()
		if err != nil || res0.Status != Optimal {
			t.Fatalf("trial %d: base solve: %v %v", trial, err, res0.Status)
		}

		// Churn: depart 1..n/2 jobs, arrive 0..3 newcomers.
		departs := 1 + rng.Intn(n/2)
		next := append([]fakeJob(nil), jobs[departs:]...)
		for a := rng.Intn(4); a > 0; a-- {
			next = append(next, newFakeJob(rng, ColumnID(fmt.Sprintf("j%d", nextID)), numRows))
			nextID++
		}
		nextProblem, nextIDs := buildJobLP(next, jitterRHS(rng, rhs, 0.05))
		cold, err := nextProblem.Solve()
		if err != nil {
			t.Fatalf("trial %d: cold solve: %v", trial, err)
		}
		mapped, err := nextProblem.SolveFromMapped(res0.Basis.Remap(baseIDs, nextIDs))
		if err != nil {
			t.Fatalf("trial %d: mapped solve: %v", trial, err)
		}
		checkParity(t, fmt.Sprintf("trial %d", trial), mapped, cold)
		if mapped.Remapped {
			remapped++
			totalMappedIters += mapped.Iterations
			totalColdIters += cold.Iterations
		}
	}
	if remapped < 150 {
		t.Fatalf("remapped warm start engaged on only %d/200 churned solves", remapped)
	}
	if totalMappedIters >= totalColdIters {
		t.Errorf("remapped starts used %d iterations vs %d cold — no saving", totalMappedIters, totalColdIters)
	}
	t.Logf("remapped %d/200; iterations mapped=%d cold=%d", remapped, totalMappedIters, totalColdIters)
}

// TestRemapNoSurvivorsFallsBackCold covers the all-jobs-departed and
// empty-to-nonempty edges: a mapping with no surviving columns (or no basis
// at all) must silently run the cold path and still reach the optimum.
func TestRemapNoSurvivorsFallsBackCold(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	numRows := 3
	jobs := make([]fakeJob, 6)
	for v := range jobs {
		jobs[v] = newFakeJob(rng, ColumnID(fmt.Sprintf("old%d", v)), numRows)
	}
	rhs := []float64{2, 2, 2}
	base, baseIDs := buildJobLP(jobs, rhs)
	res0, err := base.Solve()
	if err != nil || res0.Status != Optimal {
		t.Fatalf("base: %v %v", err, res0.Status)
	}

	// Entire job set replaced: no ID survives.
	fresh := make([]fakeJob, 5)
	for v := range fresh {
		fresh[v] = newFakeJob(rng, ColumnID(fmt.Sprintf("new%d", v)), numRows)
	}
	next, nextIDs := buildJobLP(fresh, rhs)
	cold, err := next.Solve()
	if err != nil || cold.Status != Optimal {
		t.Fatalf("cold: %v %v", err, cold.Status)
	}
	mapped, err := next.SolveFromMapped(res0.Basis.Remap(baseIDs, nextIDs))
	if err != nil {
		t.Fatalf("mapped: %v", err)
	}
	if mapped.Remapped || mapped.WarmStarted {
		t.Fatal("no-survivor mapping should fall back to the cold path")
	}
	checkParity(t, "no survivors", mapped, cold)

	// Empty-to-nonempty: no previous basis at all. Remap on a nil basis
	// yields nil, and SolveFromMapped(nil) must be exactly a cold solve.
	var nilBasis *Basis
	if mb := nilBasis.Remap(nil, nextIDs); mb != nil {
		t.Fatal("nil basis should remap to nil")
	}
	fromNil, err := next.SolveFromMapped(nil)
	if err != nil {
		t.Fatalf("mapped from nil: %v", err)
	}
	if fromNil.WarmStarted {
		t.Fatal("nil mapping warm-started")
	}
	checkParity(t, "empty to nonempty", fromNil, cold)
}

// TestRemapSimultaneousArrivalDeparture keeps the variable count fixed while
// swapping one job's identity — the case a positional (shape-only) check
// cannot detect. The remapped solve must drop the departed column, enter the
// newcomer nonbasic, and match cold.
func TestRemapSimultaneousArrivalDeparture(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 50; trial++ {
		numRows := 2 + rng.Intn(2)
		n := 5 + rng.Intn(6)
		jobs := make([]fakeJob, n)
		for v := range jobs {
			jobs[v] = newFakeJob(rng, ColumnID(fmt.Sprintf("t%d-j%d", trial, v)), numRows)
		}
		rhs := make([]float64, numRows)
		for i := range rhs {
			rhs[i] = 1.5 + rng.Float64()
		}
		base, baseIDs := buildJobLP(jobs, rhs)
		res0, err := base.Solve()
		if err != nil || res0.Status != Optimal {
			t.Fatalf("trial %d base: %v %v", trial, err, res0.Status)
		}

		// One job departs, one arrives: same count, different identity.
		swapAt := rng.Intn(n)
		next := append([]fakeJob(nil), jobs...)
		next[swapAt] = newFakeJob(rng, ColumnID(fmt.Sprintf("t%d-new", trial)), numRows)
		nextProblem, nextIDs := buildJobLP(next, rhs)
		cold, err := nextProblem.Solve()
		if err != nil {
			t.Fatalf("trial %d cold: %v", trial, err)
		}
		mb := res0.Basis.Remap(baseIDs, nextIDs)
		if mb == nil || mb.NumCandidates() == 0 {
			t.Fatalf("trial %d: remap produced no candidates", trial)
		}
		mapped, err := nextProblem.SolveFromMapped(mb)
		if err != nil {
			t.Fatalf("trial %d mapped: %v", trial, err)
		}
		checkParity(t, fmt.Sprintf("trial %d", trial), mapped, cold)
	}
}

// TestRemapRejectsMismatchedIDs checks the defensive edges of Remap itself:
// an oldCols vector that does not match the basis shape yields nil, and a
// mapping built for a different variable count is ignored by the solver.
func TestRemapRejectsMismatchedIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	jobs := []fakeJob{
		newFakeJob(rng, "a", 2), newFakeJob(rng, "b", 2), newFakeJob(rng, "c", 2),
	}
	rhs := []float64{2, 2}
	p, ids := buildJobLP(jobs, rhs)
	res, err := p.Solve()
	if err != nil || res.Status != Optimal {
		t.Fatalf("solve: %v %v", err, res.Status)
	}
	if mb := res.Basis.Remap(ids[:2], ids); mb != nil {
		t.Fatal("short oldCols should yield nil mapping")
	}

	// A mapping sized for a 3-var problem fed to a 4-var problem must be
	// ignored (cold path), not misapplied.
	bigger := append(jobs, newFakeJob(rng, "d", 2))
	q, _ := buildJobLP(bigger, rhs)
	mb := res.Basis.Remap(ids, ids) // numVars = 3, q has 4
	got, err := q.SolveFromMapped(mb)
	if err != nil {
		t.Fatalf("mismatched mapped solve: %v", err)
	}
	if got.WarmStarted {
		t.Fatal("size-mismatched mapping should not warm start")
	}
	if got.Status != Optimal {
		t.Fatalf("fallback status %v", got.Status)
	}
}
