package obs

import "time"

// LPMetrics is the live-series bundle for the LP core. policy.SolveContext
// feeds it on every solve, turning what used to be end-of-run SolveStats
// aggregates into scrapeable counters. A nil *LPMetrics (and nil instruments
// inside) no-ops, so the solver hot path pays only nil checks when
// observability is off.
//
// Defined here rather than in policy to keep obs dependency-free: the
// context passes plain numbers, obs never imports lp.
type LPMetrics struct {
	reg *Registry

	Solves             *CounterVec // kind: warm | remap | cold | fallback
	Iterations         *Counter
	DualIterations     *Counter
	PresolveReductions *Counter
	Refactorizations   *Counter
	LabelSolves        *CounterVec // per caller-supplied solve label
	SolveSeconds       *Histogram
	// BuildSeconds is, per policy Allocate call, the wall-clock spent
	// outside LP solves: program build, basis remapping, extraction.
	BuildSeconds *Histogram
}

// NewLPMetrics registers the LP series on r (nil r yields a nil bundle).
func NewLPMetrics(r *Registry) *LPMetrics {
	if r == nil {
		return nil
	}
	m := &LPMetrics{
		reg:                r,
		Solves:             r.CounterVec("gavel_lp_solves_total", "LP solves by warm-start outcome.", "kind"),
		Iterations:         r.Counter("gavel_lp_iterations_total", "Simplex iterations across all solves."),
		DualIterations:     r.Counter("gavel_lp_dual_iterations_total", "Dual simplex iterations across all solves."),
		PresolveReductions: r.Counter("gavel_lp_presolve_reductions_total", "Rows+columns removed by presolve."),
		Refactorizations:   r.Counter("gavel_lp_refactorizations_total", "Basis LU refactorizations in the revised engine."),
		LabelSolves:        r.CounterVec("gavel_lp_label_solves_total", "LP solves by caller label.", "label"),
		SolveSeconds:       r.Histogram("gavel_lp_solve_seconds", "Wall-clock per LP solve.", DurationBuckets),
		BuildSeconds:       r.Histogram("gavel_policy_build_seconds", "Wall-clock per policy Allocate outside its LP solves.", DurationBuckets),
	}
	// Pre-register the outcome children so scrapes see the full vocabulary
	// at zero before the first solve of each kind lands.
	for _, k := range []string{"warm", "remap", "cold", "fallback"} {
		m.Solves.With(k)
	}
	return m
}

// Start reads the clock for a solve timing (zero time when nil, which makes
// the matching Observe a no-op).
func (m *LPMetrics) Start() time.Time {
	if m == nil {
		return time.Time{}
	}
	return m.reg.Now()
}

// RecordSolve feeds one completed solve into the live series and returns the
// wall-clock seconds it observed for it (0 without a start time).
func (m *LPMetrics) RecordSolve(kind, label string, iterations, dualIterations, presolveReductions, refactorizations int, start time.Time) float64 {
	if m == nil {
		return 0
	}
	m.Solves.With(kind).Inc()
	m.Iterations.Add(iterations)
	m.DualIterations.Add(dualIterations)
	m.PresolveReductions.Add(presolveReductions)
	m.Refactorizations.Add(refactorizations)
	if label != "" {
		m.LabelSolves.With(label).Inc()
	}
	if start.IsZero() {
		return 0
	}
	d := m.reg.Since(start)
	m.SolveSeconds.Observe(d)
	return d
}

// ObserveBuild records one policy Allocate that began at start and spent
// solveSeconds of its wall-clock inside LP solves.
func (m *LPMetrics) ObserveBuild(start time.Time, solveSeconds float64) {
	if m == nil || start.IsZero() {
		return
	}
	// Clock granularity can leave the difference a hair below zero.
	m.BuildSeconds.Observe(max(0, m.reg.Since(start)-solveSeconds))
}
