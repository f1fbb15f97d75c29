package policy

import (
	"fmt"
	"sort"

	"gavel/internal/core"
	"gavel/internal/lp"
	"gavel/internal/milp"
)

// EntityPolicy selects how an entity divides its share among its own jobs
// in a hierarchical policy (§4.3).
type EntityPolicy int

const (
	// EntityFairness shares the entity's weight across its jobs in
	// proportion to their individual weights.
	EntityFairness EntityPolicy = iota
	// EntityFIFO gives the entity's entire weight to its earliest-arrived
	// unfinished job, then the next, and so on.
	EntityFIFO
)

// Hierarchical implements the multi-level policy of §4.3: a weighted
// max-min fairness policy across entities, with per-entity fairness or FIFO
// below, solved by water filling. Each iteration solves one max-min LP and
// then identifies bottlenecked jobs — jobs whose normalized throughput
// cannot rise without lowering another job's — which are frozen at their
// achieved throughput before the next iteration.
//
// Bottleneck identification uses the Appendix A.1 MILP when UseMILP is set;
// otherwise the classic water-filling heuristic (freeze the jobs pinned at
// the iteration's minimum) is used, which is far cheaper and agrees with
// the MILP on all but adversarial instances (see the package tests).
type Hierarchical struct {
	// EntityWeight maps entity id -> weight; missing entities get 1.
	EntityWeight map[int]float64
	// EntityPolicyOf maps entity id -> intra-entity policy; default
	// EntityFairness.
	EntityPolicyOf map[int]EntityPolicy
	// UseMILP selects exact bottleneck detection.
	UseMILP bool
	// MaxIterations bounds water-filling rounds (default: #entities + 4).
	MaxIterations int
}

// Name implements Policy.
func (p *Hierarchical) Name() string { return "hierarchical" }

// WaterFilledMaxMin returns a single-level weighted max-min fairness policy
// solved with full water filling (all jobs in one entity). The paper notes
// (§4.3) the same procedure sharpens single-level LAS.
func WaterFilledMaxMin() *Hierarchical {
	return &Hierarchical{}
}

// Allocate implements Policy.
func (p *Hierarchical) Allocate(in *Input, ctx *SolveContext) (*core.Allocation, error) {
	defer ctx.observeBuild(ctx.startBuild())
	if err := in.validate(); err != nil {
		return nil, err
	}
	if len(in.Jobs) == 0 {
		return emptyAllocation(in), nil
	}

	norm := make([]float64, len(in.Jobs)) // throughput(m, X^equal)
	valid := make([]bool, len(in.Jobs))
	for m := range in.Jobs {
		norm[m] = core.EqualShareThroughput(in.Jobs[m].Tput, in.Workers)
		valid[m] = core.Finite(norm[m]) && in.Jobs[m].Weight > 0
	}

	entities := p.groupEntities(in, valid)
	if len(entities) == 0 {
		return emptyAllocation(in), nil
	}

	maxIter := p.MaxIterations
	if maxIter <= 0 {
		maxIter = len(in.Jobs) + 4
	}

	frozen := make([]bool, len(in.Jobs))   // bottlenecked jobs
	floor := make([]float64, len(in.Jobs)) // frozen normalized throughput
	prev := make([]float64, len(in.Jobs))  // previous iteration's achieved levels
	var lastAlloc *core.Allocation

	// Every LP of the procedure — each iteration's water-filling program and
	// its bottleneck test — sits on the same skeleton, built once and
	// rewound per LP.
	pr := ctx.program(lp.Maximize, in, false)

	for iter := 0; iter < maxIter; iter++ {
		wjob := p.jobWeights(in, entities, frozen)
		anyActive := false
		for m := range wjob {
			if wjob[m] > 0 {
				anyActive = true
			}
		}
		if !anyActive {
			break
		}

		alloc, achieved, err := p.solveIteration(in, ctx, pr, wjob, norm, frozen, floor, prev)
		if err != nil {
			return nil, fmt.Errorf("hierarchical iteration %d: %w", iter, err)
		}
		lastAlloc = alloc
		prev = achieved

		newlyFrozen := p.findBottlenecks(in, ctx, pr, wjob, norm, frozen, floor, achieved)
		if len(newlyFrozen) == 0 {
			// Nothing else can be distinguished: freeze everything active.
			for m := range wjob {
				if wjob[m] > 0 && !frozen[m] {
					frozen[m] = true
					floor[m] = achieved[m]
				}
			}
			break
		}
		for _, m := range newlyFrozen {
			frozen[m] = true
			floor[m] = achieved[m]
		}
		allFrozen := true
		for m := range in.Jobs {
			if valid[m] && !frozen[m] {
				allFrozen = false
				break
			}
		}
		if allFrozen {
			break
		}
	}
	if lastAlloc == nil {
		return emptyAllocation(in), nil
	}
	return lastAlloc, nil
}

type entityGroup struct {
	id     int
	weight float64
	jobs   []int // sorted by arrival for FIFO entities
	policy EntityPolicy
}

func (p *Hierarchical) groupEntities(in *Input, valid []bool) []entityGroup {
	byID := map[int][]int{}
	for m := range in.Jobs {
		if !valid[m] {
			continue
		}
		e := in.Jobs[m].Entity
		byID[e] = append(byID[e], m)
	}
	ids := make([]int, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	groups := make([]entityGroup, 0, len(ids))
	for _, id := range ids {
		g := entityGroup{id: id, weight: 1, policy: EntityFairness, jobs: byID[id]}
		if w, ok := p.EntityWeight[id]; ok {
			g.weight = w
		}
		if ep, ok := p.EntityPolicyOf[id]; ok {
			g.policy = ep
		}
		sort.Slice(g.jobs, func(a, b int) bool {
			return in.Jobs[g.jobs[a]].ArrivalSeq < in.Jobs[g.jobs[b]].ArrivalSeq
		})
		groups = append(groups, g)
	}
	return groups
}

// jobWeights assigns w^job_m per §4.3: fairness entities split their weight
// over unfrozen jobs in proportion to job weights; FIFO entities give the
// whole weight to the earliest unfrozen job.
func (p *Hierarchical) jobWeights(in *Input, entities []entityGroup, frozen []bool) []float64 {
	w := make([]float64, len(in.Jobs))
	for _, g := range entities {
		switch g.policy {
		case EntityFIFO:
			for _, m := range g.jobs {
				if !frozen[m] {
					w[m] = g.weight
					break
				}
			}
		default: // EntityFairness
			total := 0.0
			for _, m := range g.jobs {
				if !frozen[m] {
					total += in.Jobs[m].Weight
				}
			}
			if total == 0 {
				continue
			}
			for _, m := range g.jobs {
				if !frozen[m] {
					w[m] = g.weight * in.Jobs[m].Weight / total
				}
			}
		}
	}
	return w
}

// solveIteration runs one water-filling LP, the §4.3 incremental max-min:
// maximize the minimum over weighted jobs of (normThpt(m) - prev_m)/wjob_m,
// holding frozen jobs at their floors and never letting any job drop below
// its previous level. The incremental form is what keeps each entity's
// cumulative share proportional to its weight: every iteration distributes
// the remaining capacity across entities in weight ratio. Returns the
// allocation and every job's achieved normalized throughput.
//
// Jobs carrying no weight this iteration (e.g. non-head jobs of a FIFO
// entity) are *pinned* at their previous level with an explicit pair of
// rows rather than just floored: historically they soaked up whatever
// incidental throughput the solver's optimal vertex happened to hand them,
// which made the procedure's outcome vertex-sensitive and forced every
// hierarchical LP onto the cold path. With the pin, every optimal vertex
// assigns zero-weight jobs the same level, so seeded solves (positional or
// remapped) are safe and the LPs warm-start like every other policy's.
func (p *Hierarchical) solveIteration(in *Input, ctx *SolveContext, pr *core.Program, wjob, norm []float64, frozen []bool, floor, prev []float64) (*core.Allocation, []float64, error) {
	pr.Rewind()
	t := pr.AddVar(1, "t")
	for m := range in.Jobs {
		if norm[m] <= 0 {
			continue
		}
		id := in.Jobs[m].ID
		sf := float64(in.Jobs[m].scaleFactor())
		switch {
		case frozen[m]:
			// Do not degrade a bottlenecked job below its frozen level.
			terms := pr.ThroughputTerms(m, sf/norm[m])
			pr.AddRow(terms, lp.GE, floor[m]*(1-1e-6), ctx.rowID("wf:", id))
		case wjob[m] > 0:
			// (normThpt - prev)/wjob >= t, plus non-degradation.
			terms := pr.ThroughputTerms(m, sf/(wjob[m]*norm[m]))
			terms = append(terms, lp.Term{Var: t, Coeff: -1})
			pr.AddRow(terms, lp.GE, prev[m]/wjob[m]*(1-1e-6), ctx.rowID("wf:", id))
		default:
			// Zero-weight this iteration: pin the incidental throughput to
			// the previous level from both sides so the optimum is
			// vertex-insensitive (for prev = 0 the job simply gets nothing
			// until it carries weight).
			terms := pr.ThroughputTerms(m, sf/norm[m])
			if prev[m] > 0 {
				pr.AddRow(terms, lp.GE, prev[m]*(1-1e-6), ctx.rowID("wf:", id))
			}
			pr.AddRow(terms, lp.LE, prev[m]*(1+1e-6), ctx.rowID("wfc:", id))
		}
	}
	res, err := ctx.solveOptimal("hier/wf", pr)
	if err != nil {
		return nil, nil, err
	}
	alloc := pr.Extract(res.X)
	// One pass over the units for every job's throughput, then scaled in
	// place into the achieved normalized levels.
	achieved := alloc.EffectiveThroughputs(len(in.Jobs))
	for m := range in.Jobs {
		if norm[m] > 0 {
			achieved[m] = achieved[m] * float64(in.Jobs[m].scaleFactor()) / norm[m]
		} else {
			achieved[m] = 0
		}
	}
	return alloc, achieved, nil
}

// findBottlenecks returns the active jobs to freeze after an iteration.
func (p *Hierarchical) findBottlenecks(in *Input, ctx *SolveContext, pr *core.Program, wjob, norm []float64, frozen []bool, floor, achieved []float64) []int {
	if p.UseMILP {
		if out, ok := p.milpBottlenecks(in, pr.Index(), wjob, norm, frozen, floor, achieved); ok {
			return out
		}
		// Fall through to the LP test on MILP trouble.
	}
	// LP improvement test (a linear relaxation of the Appendix A.1 MILP):
	// give each active job a slack s_m in [0, eps_m] with the constraint
	// normThpt(m) >= achieved_m + s_m, keep everyone else at their level,
	// and maximize sum s_m. With eps small the per-job improvements are
	// (near-)independent, so s_m stuck at 0 marks a bottlenecked job.
	pr.Rewind()
	slack := make([]int, len(in.Jobs))
	for m := range slack {
		slack[m] = -1
	}
	for m := range in.Jobs {
		if norm[m] <= 0 {
			continue
		}
		id := in.Jobs[m].ID
		sf := float64(in.Jobs[m].scaleFactor())
		terms := pr.ThroughputTerms(m, sf/norm[m])
		switch {
		case frozen[m]:
			pr.AddRow(terms, lp.GE, floor[m]*(1-1e-6), ctx.rowID("bn:", id))
		case wjob[m] > 0:
			eps := 1e-3 * (achieved[m] + 1)
			s := pr.AddVar(1, ctx.rowID("s:", id))
			slack[m] = s
			// terms stays valid across this AddRow: it copies its own
			// argument and does not touch the program's scratch.
			slackTerm := [1]lp.Term{{Var: s, Coeff: 1}}
			pr.AddRow(slackTerm[:], lp.LE, eps, ctx.rowID("bs:", id))
			terms = append(terms, lp.Term{Var: s, Coeff: -1})
			pr.AddRow(terms, lp.GE, achieved[m]*(1-1e-6), ctx.rowID("bn:", id))
		}
	}
	// The bottleneck test reads only which slacks are stuck at zero, a
	// property of the optimum rather than the vertex, so it warm-starts
	// under its own label (the LP's shape tracks the freezing progress, so
	// successive iterations reuse the basis via the cross-shape remap).
	res, err := ctx.solveOptimal("hier/bn", pr)
	if err != nil {
		// Numerical trouble: freeze everything so the caller terminates.
		var out []int
		for m := range in.Jobs {
			if !frozen[m] && wjob[m] > 0 {
				out = append(out, m)
			}
		}
		return out
	}
	var out []int
	for m := range in.Jobs {
		if frozen[m] || wjob[m] <= 0 || slack[m] < 0 {
			continue
		}
		eps := 1e-3 * (achieved[m] + 1)
		if res.X[slack[m]] < eps/2 {
			out = append(out, m)
		}
	}
	return out
}

// milpBottlenecks runs the Appendix A.1 MILP: maximize the number of jobs
// whose scaled throughput can strictly improve while no job drops below its
// current level; jobs with z_m = 0 are bottlenecked.
func (p *Hierarchical) milpBottlenecks(in *Input, index *core.MemberIndex, wjob, norm []float64, frozen []bool, floor, achieved []float64) ([]int, bool) {
	mp := milp.NewProblem(lp.Maximize)
	numTypes := len(in.Workers)
	sfJob := in.scaleFactors()

	// Allocation variables mirror core.NewProgram.
	xv := make([][]int, len(in.Units))
	for ui := range in.Units {
		xv[ui] = make([]int, numTypes)
		for j := 0; j < numTypes; j++ {
			usable := false
			for k := range in.Units[ui].Jobs {
				if in.Units[ui].Tput[k][j] > 0 {
					usable = true
					break
				}
			}
			if usable {
				xv[ui][j] = mp.AddVar(0, "")
			} else {
				xv[ui][j] = -1
			}
		}
	}
	tputTerms := func(m int, factor float64) []lp.Term {
		var terms []lp.Term
		units, slots := index.Of(m)
		for i, ui := range units {
			tput := in.Units[ui].Tput[slots[i]]
			for j := 0; j < numTypes; j++ {
				if v := xv[ui][j]; v >= 0 && tput[j] > 0 {
					terms = append(terms, lp.Term{Var: v, Coeff: factor * tput[j]})
				}
			}
		}
		return terms
	}
	// Validity constraints.
	for m := range in.Jobs {
		var terms []lp.Term
		units, _ := index.Of(m)
		for _, ui := range units {
			for j := 0; j < numTypes; j++ {
				if v := xv[ui][j]; v >= 0 {
					terms = append(terms, lp.Term{Var: v, Coeff: 1})
				}
			}
		}
		if len(terms) > 0 {
			mp.AddConstraint(terms, lp.LE, 1)
		}
	}
	for j := 0; j < numTypes; j++ {
		var terms []lp.Term
		for ui := range in.Units {
			if v := xv[ui][j]; v >= 0 {
				sf := 1.0
				for _, m := range in.Units[ui].Jobs {
					if s := float64(sfJob[m]); s > sf {
						sf = s
					}
				}
				terms = append(terms, lp.Term{Var: v, Coeff: sf})
			}
		}
		if len(terms) > 0 {
			mp.AddConstraint(terms, lp.LE, in.Workers[j])
		}
	}
	// No job's normalized throughput drops.
	level := make([]float64, len(in.Jobs))
	for m := range in.Jobs {
		if norm[m] <= 0 {
			continue
		}
		sf := float64(sfJob[m])
		level[m] = achieved[m]
		if frozen[m] {
			level[m] = floor[m]
		}
		mp.AddConstraint(tputTerms(m, sf/norm[m]), lp.GE, level[m]*(1-1e-6))
	}
	// z_m = 1 requires a strict improvement.
	var zs []int
	var zjobs []int
	const improve = 1e-3
	for m := range in.Jobs {
		if frozen[m] || wjob[m] <= 0 || norm[m] <= 0 {
			continue
		}
		z := mp.AddBinaryVar(1, "")
		zs = append(zs, z)
		zjobs = append(zjobs, m)
		sf := float64(sfJob[m])
		// throughput >= L - Y*(1-z), i.e. throughput - Y*z >= L - Y,
		// with L the strictly-improved level and Y a big-M constant.
		L := level[m]*(1+improve) + improve
		bigY := 10.0 + L
		terms := tputTerms(m, sf/norm[m])
		terms = append(terms, lp.Term{Var: z, Coeff: -bigY})
		mp.AddConstraint(terms, lp.GE, L-bigY)
	}
	mp.MaxNodes = 2000
	res, err := mp.Solve()
	if err != nil || (res.Status != lp.Optimal && res.Status != lp.IterationLimit) {
		return nil, false
	}
	var out []int
	for i, z := range zs {
		if res.X[z] < 0.5 {
			out = append(out, zjobs[i])
		}
	}
	return out, true
}
