package policy

import (
	"fmt"

	"gavel/internal/core"
	"gavel/internal/lp"
)

// PlacementAwareMaxMin is the §3.1 "Placement Sensitivity" transformation
// applied to the max-min fairness policy: every accelerator type is split
// into a consolidated and an unconsolidated virtual worker type with
// distinct throughputs (the two extreme points of the placement space),
// and the two columns share the physical type's capacity. Distributed jobs
// whose models are communication-bound then receive consolidated time in
// the optimum, while compact-weight models absorb the fragmented capacity.
//
// Input contract: JobInfo.Tput carries the *consolidated* throughputs (as
// elsewhere); UnconsolidatedTput supplies the spread-placement values per
// job. Jobs absent from UnconsolidatedTput fall back to their consolidated
// values scaled by DefaultSpreadFactor (1 for single-worker jobs, which
// are placement-insensitive).
type PlacementAwareMaxMin struct {
	// UnconsolidatedTput[jobIndex][type] gives spread-placement
	// throughputs; may be nil for single-worker-only inputs.
	UnconsolidatedTput map[int][]float64
}

// Name implements Policy.
func (p *PlacementAwareMaxMin) Name() string { return "max_min_fairness_placement" }

// Allocate implements Policy. Pair units are not supported in combination
// with placement splitting (the paper evaluates SS for single-worker jobs,
// which are placement-insensitive); pairs in the input are ignored.
func (p *PlacementAwareMaxMin) Allocate(in *Input, ctx *SolveContext) (*core.Allocation, error) {
	defer ctx.observeBuild(ctx.startBuild())
	if err := in.validate(); err != nil {
		return nil, err
	}
	if len(in.Jobs) == 0 {
		return emptyAllocation(in), nil
	}
	numTypes := len(in.Workers)

	// Virtual universe: columns [0, numTypes) consolidated, [numTypes,
	// 2*numTypes) unconsolidated.
	virtWorkers := make([]float64, 2*numTypes)
	for j, w := range in.Workers {
		virtWorkers[j] = w
		virtWorkers[numTypes+j] = w
	}
	virtUnits := make([]core.Unit, len(in.Jobs))
	for m := range in.Jobs {
		cons := in.Jobs[m].Tput
		uncons := p.unconsolidated(in, m)
		vt := make([]float64, 2*numTypes)
		copy(vt, cons)
		copy(vt[numTypes:], uncons)
		// Keyed by the external job ID so the placement LP's basis survives
		// job churn like every other policy's.
		virtUnits[m] = core.Single(m, vt).Keyed(core.JobKey(in.Jobs[m].ID))
	}

	pr := ctx.program(lp.Maximize, &Input{Jobs: in.Jobs, Units: virtUnits, Workers: virtWorkers}, false)
	// The consolidated and unconsolidated columns of a physical type share
	// its devices: sum over both halves <= count.
	for j := 0; j < numTypes; j++ {
		var terms []lp.Term
		for ui := range virtUnits {
			sf := float64(in.Jobs[ui].scaleFactor())
			for _, col := range []int{j, numTypes + j} {
				if v := pr.XVar[ui][col]; v >= 0 {
					terms = append(terms, lp.Term{Var: v, Coeff: sf})
				}
			}
		}
		if len(terms) > 0 {
			pr.AddRow(terms, lp.LE, in.Workers[j], fmt.Sprintf("pc:%d", j))
		}
	}

	// The weighted max-min kernel's pass 1, normalized by the consolidated
	// equal-share throughput so the objective stays comparable with the
	// plain policy.
	k := ctx.weightedMaxMin(in, pr)
	if !normalizers(in, false, k.scale) {
		return emptyAllocation(in), nil
	}
	for m, s := range k.scale {
		if s != 0 {
			k.tc[m] = 1
		}
	}
	x, _, err := k.maximize("placement", "t")
	if err != nil {
		return nil, err
	}
	virt := pr.Extract(x)

	// Fold the virtual columns back onto the physical types for the
	// mechanism; the consolidated/unconsolidated preference is recovered
	// by the mechanism's best-fit server placement.
	out := emptyAllocation(in)
	for m := range in.Jobs {
		for j := range numTypes {
			out.X[m][j] = min(virt.X[m][j]+virt.X[m][numTypes+j], 1)
		}
	}
	return out, nil
}

// unconsolidated returns job m's spread-placement throughputs, one per
// physical type.
func (p *PlacementAwareMaxMin) unconsolidated(in *Input, m int) []float64 {
	if u, ok := p.UnconsolidatedTput[m]; ok && len(u) == len(in.Workers) {
		return u
	}
	// Single-worker jobs are placement-insensitive; multi-worker jobs
	// without data default to a conservative 60% of consolidated.
	out := make([]float64, len(in.Workers))
	factor := 1.0
	if in.Jobs[m].ScaleFactor > 1 {
		factor = 0.6
	}
	for j, v := range in.Jobs[m].Tput {
		out[j] = v * factor
	}
	return out
}
