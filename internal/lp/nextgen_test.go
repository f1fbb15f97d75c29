package lp

// Tests for the solve path's stages: presolve round-trips, dual-vs-primal
// warm-start equivalence, remapping of nonbasic-at-upper columns, the
// anti-cycling audit, and the recovery re-solve. They share the fuzz harness
// of fuzz_test.go.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestPresolvedMatchesRawFuzz is the presolve round-trip gate: on fuzzed
// LPs of every flavor, solving with the presolve pass must agree with the
// raw solve — same status, objective within 1e-9 — and the postsolved x must
// satisfy every original row. Presolve may only change speed, never the
// answer.
func TestPresolvedMatchesRawFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	nextID := 0
	flavors := []string{"feasible", "feasible", "infeasible", "unbounded", "degenerate"}
	reductions := 0
	for trial := 0; trial < 300; trial++ {
		flavor := flavors[trial%len(flavors)]
		fp := genFuzz(rng, &nextID, flavor)
		label := fmt.Sprintf("trial %d (%s)", trial, flavor)
		rawProblem := fp.build()
		rawProblem.noPresolve = true
		raw, err := rawProblem.Solve()
		if err != nil {
			t.Fatalf("%s: raw: %v", label, err)
		}
		if raw.PresolveReductions != 0 {
			t.Fatalf("%s: the raw solve reports %d presolve reductions", label, raw.PresolveReductions)
		}
		pre, err := fp.build().Solve()
		if err != nil {
			t.Fatalf("%s: presolved: %v", label, err)
		}
		reductions += pre.PresolveReductions
		if raw.Status != pre.Status {
			t.Fatalf("%s: raw status %v, presolved %v", label, raw.Status, pre.Status)
		}
		if raw.Status != Optimal {
			continue
		}
		scale := 1 + math.Abs(raw.Objective)
		if d := math.Abs(raw.Objective - pre.Objective); d > 1e-9*scale {
			t.Fatalf("%s: raw objective %v, presolved %v (diff %g)", label, raw.Objective, pre.Objective, d)
		}
		// The postsolved point must satisfy every ORIGINAL row: the
		// postsolve map has to undo each reduction exactly.
		for _, r := range fp.rows {
			ax := 0.0
			for j, c := range r.coeff {
				ax += c * pre.X[j]
			}
			viol := false
			switch r.op {
			case LE:
				viol = ax > r.rhs+1e-7
			case GE:
				viol = ax < r.rhs-1e-7
			default:
				viol = math.Abs(ax-r.rhs) > 1e-7
			}
			if viol {
				t.Fatalf("%s: postsolved x violates row %s: ax=%v %v rhs=%v", label, r.id, ax, r.op, r.rhs)
			}
		}
	}
	if reductions == 0 {
		t.Fatal("presolve never removed anything across 300 fuzzed LPs")
	}
}

// TestDualMatchesPrimalWarm is the dual-path equivalence gate: a warm solve
// allowed to repair with the dual simplex must reach the same optimum as one
// forced through the primal composite phase 1, on fuzzed rhs-drifted
// re-solves — and the dual path must actually engage (nonzero DualIterations
// over the run).
func TestDualMatchesPrimalWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	nextID := 0
	dualIters := 0
	for trial := 0; trial < 200; trial++ {
		fp := genFuzz(rng, &nextID, "feasible")
		first, err := fp.build().Solve()
		if err != nil || first.Status != Optimal {
			continue
		}
		// Drift only the rhs: the textbook dual-simplex scenario (the basis
		// stays dual feasible, a few basic values stray out of bounds).
		for i := range fp.rows {
			fp.rows[i].rhs *= 1 + 0.05*(2*rng.Float64()-1)
		}
		label := fmt.Sprintf("trial %d", trial)
		viaDual, err := fp.build().SolveFrom(first.Basis)
		if err != nil {
			t.Fatalf("%s: dual: %v", label, err)
		}
		primalOnly := fp.build()
		primalOnly.noDual = true
		viaPrimal, err := primalOnly.SolveFrom(first.Basis)
		if err != nil {
			t.Fatalf("%s: primal: %v", label, err)
		}
		dualIters += viaDual.DualIterations
		if viaPrimal.DualIterations != 0 {
			t.Fatalf("%s: the primal-only solve reported %d dual iterations", label, viaPrimal.DualIterations)
		}
		if viaDual.Status != viaPrimal.Status {
			t.Fatalf("%s: dual status %v, primal %v", label, viaDual.Status, viaPrimal.Status)
		}
		if viaDual.Status != Optimal {
			continue
		}
		scale := 1 + math.Abs(viaPrimal.Objective)
		if d := math.Abs(viaDual.Objective - viaPrimal.Objective); d > 1e-9*scale {
			t.Fatalf("%s: dual objective %v, primal %v (diff %g)", label, viaDual.Objective, viaPrimal.Objective, d)
		}
	}
	if dualIters == 0 {
		t.Fatal("the dual simplex never took a pivot across 200 rhs-drifted warm solves")
	}
	t.Logf("dual iterations across run: %d", dualIters)
}

// TestRemapCarriesNonBasicAtUpper is the Basis.Remap edge gate for the
// bounded-variable vertex: a column nonbasic at its presolve-derived upper
// bound must survive a remap with its bound status (MappedBasis counts it as
// a candidate), and the mapped solve must match cold. The LP is built so the
// optimum pins two columns at their caps with only one basic structural.
func TestRemapCarriesNonBasicAtUpper(t *testing.T) {
	build := func(ids []ColumnID, obj []float64, caps []float64, budget float64) *Problem {
		p := NewProblem(Maximize)
		var terms []Term
		for j, id := range ids {
			p.AddVar(obj[j], string(id))
			// Singleton cap row: presolve converts it to an implicit bound,
			// so at the optimum the saturated columns sit nonbasic AT their
			// upper bound rather than basic against a slack.
			p.AddConstraintRow([]Term{{Var: j, Coeff: 1}}, LE, caps[j], fmt.Sprintf("cap:%s", id))
			terms = append(terms, Term{Var: j, Coeff: 1})
		}
		p.AddConstraintRow(terms, LE, budget, "budget")
		return p
	}
	oldIDs := []ColumnID{"a", "b", "c"}
	// maximize 3a+2b+c, a<=1, b<=2, c<=3, a+b+c<=4: optimum a=1 (at cap),
	// b=2 (at cap), c=1 (basic on the budget row).
	first, err := build(oldIDs, []float64{3, 2, 1}, []float64{1, 2, 3}, 4).Solve()
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != Optimal || math.Abs(first.Objective-8) > 1e-9 {
		t.Fatalf("unexpected first solve: %v obj=%v", first.Status, first.Objective)
	}
	if len(first.Basis.atUpper) == 0 {
		t.Fatalf("optimum pinned columns at caps but Basis.atUpper is empty (cols=%v)", first.Basis.cols)
	}
	// Churn: b departs, d arrives; a and c survive — a was nonbasic at its
	// cap and must carry that status through the remap.
	newIDs := []ColumnID{"a", "c", "d"}
	mb := first.Basis.Remap(oldIDs, newIDs)
	if mb == nil {
		t.Fatal("remap returned nil")
	}
	if len(mb.uppers) == 0 {
		t.Fatalf("no nonbasic-at-upper column survived the remap (cands=%v uppers=%v)", mb.cands, mb.uppers)
	}
	if mb.NumCandidates() != len(mb.cands)+len(mb.uppers) {
		t.Fatalf("NumCandidates %d does not count the %d upper survivors", mb.NumCandidates(), len(mb.uppers))
	}
	next := build(newIDs, []float64{3, 1, 2}, []float64{1, 3, 2}, 4)
	mapped, err := next.SolveFromMapped(mb)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := build(newIDs, []float64{3, 1, 2}, []float64{1, 3, 2}, 4).Solve()
	if err != nil {
		t.Fatal(err)
	}
	if mapped.Status != Optimal || math.Abs(mapped.Objective-cold.Objective) > 1e-9 {
		t.Fatalf("mapped %v obj=%v, cold %v obj=%v", mapped.Status, mapped.Objective, cold.Status, cold.Objective)
	}
	for j := range cold.X {
		if math.Abs(mapped.X[j]-cold.X[j]) > 1e-9 {
			t.Fatalf("mapped x%d=%v, cold %v", j, mapped.X[j], cold.X[j])
		}
	}
}

// TestBealeCyclingRegression is the anti-cycling audit: Beale's classic
// cycling LP (pure Dantzig pricing loops forever on it) must reach the known
// optimum within a hard iteration budget — the degenerate-streak switch from
// Devex to Bland's rule is what guarantees termination.
func TestBealeCyclingRegression(t *testing.T) {
	res, err := bealeProblem().Solve()
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status %v", res.Status)
	}
	if math.Abs(res.Objective-(-0.05)) > 1e-9 {
		t.Fatalf("objective %v, want -0.05", res.Objective)
	}
	// Cycling means never terminating at all; the bound is loose on purpose.
	if res.Iterations > 500 {
		t.Fatalf("%d iterations on a 3-row LP — cycling guard not engaging", res.Iterations)
	}
}

// TestRecoveryResolve drives the one path no well-conditioned problem
// reaches: an attempt the engine cannot verify. One failed attempt is
// answered by the raw cold re-solve and flagged; two yield ErrNumerical and
// no Result — never an unverified answer.
func TestRecoveryResolve(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	nextID := 0
	fp := genFuzz(rng, &nextID, "feasible")
	want, err := fp.build().Solve()
	if err != nil || want.Status != Optimal || want.Recovered || want.PresolveReductions == 0 {
		t.Fatalf("baseline solve: %+v, %v", want, err)
	}

	ws := &Workspace{failNext: 1}
	p := fp.build()
	p.SetWorkspace(ws)
	got, err := p.SolveFrom(want.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Recovered || got.WarmStarted || got.PresolveReductions != 0 {
		t.Fatalf("want the raw cold re-solve, got recovered=%v warm=%v reductions=%d",
			got.Recovered, got.WarmStarted, got.PresolveReductions)
	}
	checkParity(t, "recovered", got, want)
	if got.Basis == nil {
		t.Fatal("the recovered optimum carries no basis to warm-start from")
	}

	ws.failNext = 2
	got, err = p.Solve()
	if !errors.Is(err, ErrNumerical) || got != nil {
		t.Fatalf("want (nil, ErrNumerical), got (%+v, %v)", got, err)
	}
	if ws.failNext != 0 {
		t.Fatalf("%d of two failures left unconsumed", ws.failNext)
	}
}
