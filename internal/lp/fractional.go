package lp

import (
	"errors"
	"fmt"
)

// Fractional describes a linear-fractional program
//
//	maximize  (c.x + alpha) / (d.x + beta)
//	s.t.      a_i.x <= b_i   (Op per row)
//	          x >= 0,  d.x + beta > 0
//
// Gavel's cost policies ("maximize throughput per dollar", §4.2) have this
// form. policy.MinCost writes the transformed LP directly onto its allocation
// program (core.Program's homogenized layout) so it shares the reset path's
// arena and warm starts; this type is the stand-alone statement of the same
// reduction. SolveFractional reduces it to a single LP via the Charnes-Cooper
// transformation: with y = t*x and t = 1/(d.x + beta),
//
//	maximize  c.y + alpha*t
//	s.t.      a_i.y - b_i*t (op) 0
//	          d.y + beta*t = 1
//	          y, t >= 0
//
// and recovers x = y / t.
type Fractional struct {
	NumVars int
	Num     []float64 // c, len NumVars
	NumC    float64   // alpha
	Den     []float64 // d, len NumVars
	DenC    float64   // beta
	Cons    []FractionalConstraint
}

// FractionalConstraint is one row a.x (op) b of a Fractional program. ID,
// when set, is the row's stable identity for cross-shape basis remapping
// (see Problem.AddConstraintRow).
type FractionalConstraint struct {
	Terms []Term
	Op    Op
	RHS   float64
	ID    string
}

// ErrDegenerateFraction is returned when the optimal transformed solution
// has t ~ 0, meaning the denominator is unbounded and the ratio degenerate.
var ErrDegenerateFraction = errors.New("lp: degenerate linear-fractional program (t = 0)")

// CharnesCooperID is the ColumnID of the homogenizing variable t the
// Charnes-Cooper transformation appends after the y columns, and
// CharnesCooperRowID the row identity of its normalization row d.y + beta*t
// = 1: the names a transformed LP's basis is cached and remapped under.
const (
	CharnesCooperID    ColumnID = "cc:t"
	CharnesCooperRowID          = "cc:den"
)

// transform builds the Charnes-Cooper LP for f, returning the problem, the
// y variable indices, and the t variable index.
func (f *Fractional) transform() (*Problem, []int, int, error) {
	if len(f.Num) != f.NumVars || len(f.Den) != f.NumVars {
		return nil, nil, 0, fmt.Errorf("%w: coefficient vectors must have NumVars entries", ErrBadProblem)
	}
	p := NewProblem(Maximize)
	y := make([]int, f.NumVars)
	for j := 0; j < f.NumVars; j++ {
		y[j] = p.AddVar(f.Num[j], "y")
	}
	t := p.AddVar(f.NumC, "t")

	for _, c := range f.Cons {
		terms := make([]Term, 0, len(c.Terms)+1)
		for _, tm := range c.Terms {
			terms = append(terms, Term{Var: y[tm.Var], Coeff: tm.Coeff})
		}
		terms = append(terms, Term{Var: t, Coeff: -c.RHS})
		p.AddConstraintRow(terms, c.Op, 0, c.ID)
	}
	denTerms := make([]Term, 0, f.NumVars+1)
	for j, d := range f.Den {
		if d != 0 {
			denTerms = append(denTerms, Term{Var: y[j], Coeff: d})
		}
	}
	denTerms = append(denTerms, Term{Var: t, Coeff: f.DenC})
	p.AddConstraintRow(denTerms, EQ, 1, CharnesCooperRowID)
	return p, y, t, nil
}

// SolveFractional solves the linear-fractional program and returns the
// optimal x and objective ratio.
func SolveFractional(f *Fractional) (x []float64, ratio float64, err error) {
	p, y, t, err := f.transform()
	if err != nil {
		return nil, 0, err
	}
	res, err := p.Solve()
	if err != nil {
		return nil, 0, err
	}
	if res.Status != Optimal {
		return nil, 0, fmt.Errorf("lp: fractional program not optimal: %v", res.Status)
	}
	tv := res.X[t]
	if tv < CharnesCooperMinT {
		return nil, 0, ErrDegenerateFraction
	}
	x = make([]float64, f.NumVars)
	for j := range x {
		x[j] = res.X[y[j]] / tv
	}
	return x, res.Objective, nil
}

// CharnesCooperMinT is the smallest value of the homogenizing variable t a
// transformed solution may carry before the ratio counts as degenerate
// (ErrDegenerateFraction).
const CharnesCooperMinT = 1e-9
