package lp

import "errors"

// ErrDegenerateFraction is returned when the optimal transformed solution
// has t ~ 0, meaning the denominator is unbounded and the ratio degenerate.
var ErrDegenerateFraction = errors.New("lp: degenerate linear-fractional program (t = 0)")

// The Charnes-Cooper transformation turns the linear-fractional program
// max (c.x + alpha) / (d.x + beta) s.t. a_i.x (op) b_i, x >= 0 into one LP
// over y = t*x and t = 1/(d.x + beta): max c.y + alpha*t s.t.
// a_i.y - b_i*t (op) 0, d.y + beta*t = 1, y, t >= 0; then x = y/t.
// core.Program.BuildHomogeneous lays it out for policy.MinCost.
//
// CharnesCooperID is the ColumnID of the homogenizing variable t, appended
// after the y columns, and CharnesCooperRowID the row identity of the
// normalization row d.y + beta*t = 1: the names a transformed LP's basis is
// cached and remapped under.
const (
	CharnesCooperID    ColumnID = "cc:t"
	CharnesCooperRowID          = "cc:den"
)

// CharnesCooperMinT is the smallest value of the homogenizing variable t a
// transformed solution may carry before the ratio counts as degenerate
// (ErrDegenerateFraction).
const CharnesCooperMinT = 1e-9
