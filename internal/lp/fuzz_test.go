package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The equivalence harness: the solver must agree with the reference tableau
// (reference_test.go) on status and objective (within 1e-9 relative) across
// randomized problems — feasible, infeasible, unbounded, and degenerate — and
// across every seeding path: cold, positionally warm-started from a perturbed
// predecessor, and remapped across column churn. The reference always solves
// cold: a seed may change the solver's speed, never its answer.

// fuzzProblem is a randomly generated LP plus the scaffolding to rebuild,
// perturb, and churn it.
type fuzzProblem struct {
	sense Sense
	obj   []float64
	ids   []ColumnID
	rows  []fuzzRow
}

type fuzzRow struct {
	coeff []float64 // parallel to obj/ids
	op    Op
	rhs   float64
	id    string
}

func (fp *fuzzProblem) build() *Problem {
	p := NewProblem(fp.sense)
	for j, c := range fp.obj {
		p.AddVar(c, string(fp.ids[j]))
	}
	for _, r := range fp.rows {
		var terms []Term
		for j, c := range r.coeff {
			if c != 0 {
				terms = append(terms, Term{Var: j, Coeff: c})
			}
		}
		p.AddConstraintRow(terms, r.op, r.rhs, r.id)
	}
	return p
}

// genFuzz generates a random LP. Feasibility is arranged by construction
// around a random interior point x0 (margins keep LE/GE rows comfortably
// satisfiable); flavor selects deliberate corruptions.
func genFuzz(rng *rand.Rand, nextID *int, flavor string) *fuzzProblem {
	n := 2 + rng.Intn(12)
	m := 1 + rng.Intn(8)
	fp := &fuzzProblem{sense: Sense(rng.Intn(2))}
	fp.obj = make([]float64, n)
	fp.ids = make([]ColumnID, n)
	for j := 0; j < n; j++ {
		fp.obj[j] = math.Round((4*rng.Float64()-2)*8) / 8
		fp.ids[j] = ColumnID(fmt.Sprintf("v%d", *nextID))
		*nextID++
	}
	x0 := make([]float64, n)
	for j := range x0 {
		x0[j] = 2 * rng.Float64()
	}
	for i := 0; i < m; i++ {
		r := fuzzRow{coeff: make([]float64, n), id: fmt.Sprintf("r%d", i)}
		ax := 0.0
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.4 {
				r.coeff[j] = math.Round((4*rng.Float64()-2)*8) / 8
				ax += r.coeff[j] * x0[j]
			}
		}
		margin := 0.1 + rng.Float64()
		switch rng.Intn(3) {
		case 0:
			r.op, r.rhs = LE, ax+margin
		case 1:
			r.op, r.rhs = GE, ax-margin
		default:
			r.op, r.rhs = EQ, ax
		}
		fp.rows = append(fp.rows, r)
	}
	// Bound every variable so the feasible-by-construction flavor is also
	// bounded (maximization over free columns would otherwise race off).
	for j := 0; j < n; j++ {
		r := fuzzRow{coeff: make([]float64, n), op: LE, rhs: x0[j] + 1 + 2*rng.Float64(), id: fmt.Sprintf("b%d", j)}
		r.coeff[j] = 1
		fp.rows = append(fp.rows, r)
	}
	switch flavor {
	case "infeasible":
		// Contradictory pair on a fresh random row.
		r := fuzzRow{coeff: make([]float64, n), id: "x1"}
		for j := 0; j < n; j++ {
			r.coeff[j] = rng.Float64()
		}
		lo := fuzzRow{coeff: r.coeff, op: GE, rhs: 5, id: "x2"}
		hi := fuzzRow{coeff: r.coeff, op: LE, rhs: 4, id: "x3"}
		fp.rows = append(fp.rows, lo, hi)
	case "unbounded":
		// A column no row touches, pushed by the objective.
		fp.obj = append(fp.obj, 1)
		if fp.sense == Minimize {
			fp.obj[len(fp.obj)-1] = -1
		}
		fp.ids = append(fp.ids, ColumnID(fmt.Sprintf("v%d", *nextID)))
		*nextID++
		for i := range fp.rows {
			fp.rows[i].coeff = append(fp.rows[i].coeff, 0)
		}
	case "degenerate":
		// Duplicate a row, zero a rhs, and duplicate a column's coefficients
		// (exact objective ties): the classic cycling and tie-breaking traps.
		if len(fp.rows) > 0 {
			dup := fp.rows[rng.Intn(len(fp.rows))]
			dup.id = "dup"
			fp.rows = append(fp.rows, dup)
		}
		fp.rows[rng.Intn(len(fp.rows))].rhs = 0
		if len(fp.obj) >= 2 {
			fp.obj[1] = fp.obj[0]
			for i := range fp.rows {
				fp.rows[i].coeff[1] = fp.rows[i].coeff[0]
			}
		}
	}
	return fp
}

// TestRevisedMatchesReferenceCold fuzzes cold solves across all flavors. The
// same stream of problems is what the golden recorded the deleted dense
// engine on, so the walk also proves the reference is still that engine.
func TestRevisedMatchesReferenceCold(t *testing.T) {
	golden := loadReferenceGolden(t)
	rng := rand.New(rand.NewSource(11))
	nextID := 0
	flavors := []string{"feasible", "feasible", "infeasible", "unbounded", "degenerate"}
	for trial := 0; trial < 300; trial++ {
		flavor := flavors[trial%len(flavors)]
		fp := genFuzz(rng, &nextID, flavor)
		label := fmt.Sprintf("trial %d (%s)", trial, flavor)
		ref := referenceSolve(fp.build())
		golden.check(t, label, ref)
		res, err := fp.build().Solve()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		checkParity(t, label+" vs reference", res, ref)
	}
	golden.check(t, "beale", referenceSolve(bealeProblem()))
	if golden.next != len(golden.Cases) {
		t.Fatalf("walked %d of the golden's %d cases", golden.next, len(golden.Cases))
	}
}

// solveBoth solves fp cold on the reference and on the solver; ok reports
// that both found an optimum (only optimal bases seed warm starts).
func solveBoth(t *testing.T, fp *fuzzProblem) (ref, res *Result, ok bool) {
	t.Helper()
	ref = referenceSolve(fp.build())
	res, err := fp.build().Solve()
	if err != nil {
		t.Fatal(err)
	}
	return ref, res, ref.Status == Optimal && res.Status == Optimal
}

// TestRevisedMatchesReferenceWarm fuzzes the positional warm path: solve,
// perturb the rhs and objective, then re-solve seeded alternately from the
// solver's own basis and from the reference's, since a Basis is portable by
// design.
func TestRevisedMatchesReferenceWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	nextID := 0
	for trial := 0; trial < 150; trial++ {
		flavor := "feasible"
		if trial%5 == 4 {
			flavor = "degenerate"
		}
		fp := genFuzz(rng, &nextID, flavor)
		ref0, res0, ok := solveBoth(t, fp)
		if !ok {
			continue
		}
		// Perturb in place: rhs jitter plus objective jitter.
		for i := range fp.rows {
			fp.rows[i].rhs *= 1 + 0.02*(2*rng.Float64()-1)
		}
		for j := range fp.obj {
			fp.obj[j] *= 1 + 0.02*(2*rng.Float64()-1)
		}
		label := fmt.Sprintf("trial %d warm", trial)
		seed := []*Basis{ref0.Basis, res0.Basis}[trial%2]
		warm, err := fp.build().SolveFrom(seed)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		checkParity(t, label+" vs reference", warm, referenceSolve(fp.build()))
	}
}

// churn drops a random suffix of columns and appends fresh ones, the same
// reshaping a job departure + arrival applies to an allocation LP.
func churn(rng *rand.Rand, fp *fuzzProblem, nextID *int) *fuzzProblem {
	out := &fuzzProblem{sense: fp.sense}
	keep := 1 + rng.Intn(len(fp.obj))
	perm := rng.Perm(len(fp.obj))[:keep]
	for _, j := range perm {
		out.obj = append(out.obj, fp.obj[j])
		out.ids = append(out.ids, fp.ids[j])
	}
	for _, r := range fp.rows {
		nr := fuzzRow{op: r.op, rhs: r.rhs * (1 + 0.02*(2*rng.Float64()-1)), id: r.id}
		for _, j := range perm {
			nr.coeff = append(nr.coeff, r.coeff[j])
		}
		out.rows = append(out.rows, nr)
	}
	for a := rng.Intn(3); a > 0; a-- {
		out.obj = append(out.obj, math.Round((4*rng.Float64()-2)*8)/8)
		out.ids = append(out.ids, ColumnID(fmt.Sprintf("v%d", *nextID)))
		*nextID++
		for i := range out.rows {
			out.rows[i].coeff = append(out.rows[i].coeff, math.Round((4*rng.Float64()-2)*8)/8*float64(rng.Intn(2)))
		}
	}
	return out
}

// TestRevisedMatchesReferenceRemapped fuzzes the cross-shape path: churn the
// column set, remap the solver's basis (or the reference's) onto the new
// problem, and require the mapped solve to match the reference's cold answer
// and the solver's own.
func TestRevisedMatchesReferenceRemapped(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	nextID := 0
	engaged := 0
	for trial := 0; trial < 150; trial++ {
		fp := genFuzz(rng, &nextID, "feasible")
		ref0, res0, ok := solveBoth(t, fp)
		if !ok {
			continue
		}
		next := churn(rng, fp, &nextID)
		mb := []*Basis{ref0.Basis, res0.Basis}[trial%2].Remap(fp.ids, next.ids)
		label := fmt.Sprintf("trial %d remap", trial)
		mapped, err := next.build().SolveFromMapped(mb)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		// The mapping may only change speed, never the answer.
		ref, cold, _ := solveBoth(t, next)
		checkParity(t, label+" vs reference", mapped, ref)
		checkParity(t, label+" vs cold", mapped, cold)
		if mapped.Remapped {
			engaged++
		}
	}
	if engaged < 50 {
		t.Fatalf("remapped path engaged on only %d churned solves", engaged)
	}
}
