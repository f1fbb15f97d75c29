// Package policy implements Gavel's scheduling policies (Table 1 of the
// paper) as optimization problems over effective throughput, plus the
// heterogeneity-agnostic and related-work baselines the paper evaluates
// against (vanilla LAS/FIFO/FTF, Gandiva ad-hoc space sharing, AlloX).
//
// Every heterogeneity-aware policy builds on internal/core's Program: an LP
// skeleton with the standard allocation-validity constraints. On it the
// policies write two shared programs. The weighted max-min kernel
// (weightedMaxMin) serves max-min fairness, makespan, finish-time
// fairness's feasibility probe and placement-aware max-min, each filling in
// its per-job vectors. One weighted normalized-throughput objective
// (normalizedThroughput) serves FIFO, shortest-job-first and
// max-total-throughput. Min-cost writes a Charnes-Cooper objective on the
// homogenized skeleton, and hierarchical fairness runs water filling with a
// MILP bottleneck test (Appendix A.1). Every solve goes through the
// SolveContext, which warm-starts it from the basis cached under the
// policy's label.
package policy

import (
	"fmt"

	"gavel/internal/core"
)

// JobInfo is the per-job state a policy consumes.
type JobInfo struct {
	ID          int
	Weight      float64 // fair-share weight (>= 0; 0 excludes the job from fairness objectives)
	Priority    float64 // multiplies Weight in the LAS-with-priorities experiment
	ScaleFactor int     // number of workers the job occupies when scheduled
	// Tput[j] is the job's isolated effective throughput on accelerator
	// type j (iterations/sec, already aggregated over ScaleFactor workers
	// with the placement model applied). Zero means the job cannot run on
	// that type.
	Tput []float64
	// RemainingSteps is the number of training iterations left.
	RemainingSteps float64
	// TotalSteps is the job's full training length (used by FTF).
	TotalSteps float64
	// Elapsed is wall-clock seconds since the job arrived.
	Elapsed float64
	// SLORemaining is seconds until the job's deadline (0 = no SLO).
	SLORemaining float64
	// ArrivalSeq orders jobs for FIFO (smaller = earlier).
	ArrivalSeq int
	// Entity groups jobs for hierarchical policies (-1 = none).
	Entity int
	// NumActiveJobs is the number of runnable jobs when the allocation is
	// computed; FTF's isolated share is 1/NumActiveJobs of the cluster.
	NumActiveJobs int
}

// Input is a complete policy invocation: the runnable jobs, the scheduling
// units the mechanism may run (all single-job units, plus candidate
// space-sharing pairs when the policy is SS-aware), and the cluster shape.
type Input struct {
	Jobs []JobInfo
	// Units must contain the single-job unit for job m at index m,
	// followed by any pair units.
	Units   []core.Unit
	Workers []float64 // per-type device counts
	Prices  []float64 // per-type dollar/hour (cost policies)
}

// Policy computes an allocation over in.Units for a cluster-wide objective.
//
// ctx, when non-nil, carries persistent per-policy state across calls —
// cached simplex bases, the previous allocation, solve statistics — so a
// reset event (job arrival/completion, throughput update) does incremental
// work instead of a cold rebuild. A nil ctx always selects the stateless
// cold path and is valid for every policy.
type Policy interface {
	Name() string
	Allocate(in *Input, ctx *SolveContext) (*core.Allocation, error)
}

// SerialPolicy marks a policy whose Allocate mutates unsynchronized
// internal state (random exploration streams, learned pairings) and must
// therefore never be invoked from multiple goroutines at once. A run whose
// shards share one instance and solve concurrently (the simulator's
// NumShards > 1 in-memory shards) rejects such policies.
type SerialPolicy interface {
	SerialOnly()
}

// ConcurrentSafe reports whether p's Allocate may run concurrently,
// unwrapping the heterogeneity-agnostic baseline wrapper to inspect the
// policy that actually does the work.
func ConcurrentSafe(p Policy) bool {
	switch v := p.(type) {
	case SerialPolicy:
		return false
	case *Agnostic:
		return ConcurrentSafe(v.Inner)
	}
	return true
}

// scaleFactors extracts the per-job scale-factor slice the core constraint
// builder consumes.
func (in *Input) scaleFactors() []int { return in.scaleFactorsInto(nil) }

// scaleFactorsInto is scaleFactors into buf's storage when it is large
// enough.
func (in *Input) scaleFactorsInto(buf []int) []int {
	sf := buf[:0]
	if cap(sf) < len(in.Jobs) {
		sf = make([]int, 0, len(in.Jobs))
	}
	sf = sf[:len(in.Jobs)]
	for i := range in.Jobs {
		sf[i] = in.Jobs[i].scaleFactor()
	}
	return sf
}

// scaleFactor is the number of workers the job occupies, at least 1.
func (j *JobInfo) scaleFactor() int {
	if j.ScaleFactor <= 0 {
		return 1
	}
	return j.ScaleFactor
}

// singlesOnly returns the prefix of in.Units holding only single-job units.
func (in *Input) singlesOnly() []core.Unit {
	n := 0
	for n < len(in.Units) && !in.Units[n].IsPair() {
		n++
	}
	return in.Units[:n]
}

// validate checks the structural contract documented on Input.
func (in *Input) validate() error {
	if len(in.Units) < len(in.Jobs) {
		return fmt.Errorf("policy: %d units for %d jobs; singles must come first", len(in.Units), len(in.Jobs))
	}
	for m := range in.Jobs {
		u := &in.Units[m]
		if u.IsPair() || u.Jobs[0] != m {
			return fmt.Errorf("policy: unit %d is not the single unit of job %d", m, m)
		}
	}
	for m, j := range in.Jobs {
		if len(j.Tput) != len(in.Workers) {
			return fmt.Errorf("policy: job %d has %d throughputs for %d types", m, len(j.Tput), len(in.Workers))
		}
	}
	return nil
}

// effectiveWeight is the job's fair-share weight including its priority
// multiplier.
func effectiveWeight(j *JobInfo) float64 {
	w := j.Weight
	if w <= 0 {
		return 0
	}
	if j.Priority > 0 {
		w *= j.Priority
	}
	return w
}

// emptyAllocation is the all-zero allocation over in's units: a policy's
// answer when there is nothing to schedule, and the storage of one that
// fills X in by hand.
func emptyAllocation(in *Input) *core.Allocation {
	X := make([][]float64, len(in.Units))
	for i := range X {
		X[i] = make([]float64, len(in.Workers))
	}
	return &core.Allocation{Units: in.Units, X: X}
}
