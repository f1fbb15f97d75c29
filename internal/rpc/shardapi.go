package rpc

import (
	"time"

	"gavel/internal/core"
	"gavel/internal/policy"
	"gavel/internal/scheduler"
)

// This file is the wire vocabulary of the coordinator <-> shard protocol.
// Every message is a plain exported struct with a hand-written wire form
// (codec.go); floats cross the wire bit-exactly (package wire writes a
// float64 as its IEEE bits), which is what makes a run over TCP
// byte-identical to one over the in-memory transport. An argument's Trace
// field is the round trace ID minted by the coordinator (obs.RoundTrace):
// shards tag their spans with it so per-round traces join across processes.
// It is empty when observability is off.

// PolicySpec names a policy by its catalog name so a coordinator can
// configure remote shard daemons without shipping code. The names are the
// policies' own Name() strings; PolicyFromSpec builds the instance.
type PolicySpec struct {
	Name string
	// EnforceSLOs applies to "min_cost" (the cost policy's SLO variant).
	EnforceSLOs bool
}

// PolicyFromSpec instantiates the named policy. Only LP-catalog policies
// that are safe for the sharded engine are registered; unknown names return
// a CodeUnknownPolicy error.
func PolicyFromSpec(spec PolicySpec) (policy.Policy, error) {
	switch spec.Name {
	case "max_min_fairness":
		return &policy.MaxMinFairness{}, nil
	case "max_min_fairness_priorities":
		return &policy.MaxMinFairness{UsePriorities: true}, nil
	case "fifo":
		return policy.FIFO{}, nil
	case "shortest_job_first":
		return policy.ShortestJobFirst{}, nil
	case "min_makespan":
		return policy.Makespan{}, nil
	case "finish_time_fairness":
		return &policy.FinishTimeFairness{}, nil
	case "min_cost":
		return &policy.MinCost{EnforceSLOs: spec.EnforceSLOs}, nil
	case "max_total_throughput":
		return policy.MaxTotalThroughput{}, nil
	}
	return nil, Errorf(CodeUnknownPolicy, "no registered policy %q", spec.Name)
}

// SpecForPolicy reverses PolicyFromSpec for instances of registered
// policies, so a caller holding a policy.Policy (the simulator) can
// configure remote daemons. ok is false for unregistered policies — those
// can only run on in-memory shard servers (ShardServer.UsePolicy).
func SpecForPolicy(p policy.Policy) (PolicySpec, bool) {
	switch v := p.(type) {
	case *policy.MaxMinFairness:
		if v.UsePriorities {
			return PolicySpec{Name: "max_min_fairness_priorities"}, true
		}
		return PolicySpec{Name: "max_min_fairness"}, true
	case policy.FIFO:
		return PolicySpec{Name: "fifo"}, true
	case policy.ShortestJobFirst:
		return PolicySpec{Name: "shortest_job_first"}, true
	case policy.Makespan:
		return PolicySpec{Name: "min_makespan"}, true
	case *policy.FinishTimeFairness:
		return PolicySpec{Name: "finish_time_fairness"}, true
	case *policy.MinCost:
		return PolicySpec{Name: "min_cost", EnforceSLOs: v.EnforceSLOs}, true
	case policy.MaxTotalThroughput:
		return PolicySpec{Name: "max_total_throughput"}, true
	}
	return PolicySpec{}, false
}

// ShardConfig is the coordinator's configuration push to one shard daemon
// (OPA bundle-style: daemons start bare and receive their identity over the
// control plane). WorkerInts is the daemon's slice of the cluster's per-type
// devices, computed with cluster.SplitWorkerCounts so the slices partition
// the global budget.
type ShardConfig struct {
	Index      int
	WorkerInts []int
	PerServer  []int
	Prices     []float64
	Policy     PolicySpec
	// ColdSolves disables the daemon's solve context (benchmark baseline).
	ColdSolves bool
	// PairGainThreshold / MaxPairsPerJob parameterize space-sharing pair
	// candidates (see ServiceConfig).
	PairGainThreshold float64
	MaxPairsPerJob    int
}

// PairRows is one space-sharing pair's throughput rows (Ta for job A, Tb for
// job B, indexed by accelerator type). Shards apply them HasPair-gated, so
// senders may transmit candidates unconditionally.
type PairRows struct {
	A, B   int
	Ta, Tb []float64
}

// InstallArgs admits one job into a shard: a fresh arrival, the receiving
// half of a rebalance migration, or a crash recovery re-route. Seeds, when
// present, carry warm-start state (the source shard's or the coordinator's
// last snapshot of the dead shard); the daemon imports them only when its
// own context has none, so the next solve lands remapped rather than cold.
type InstallArgs struct {
	Trace       string
	JobID       int
	ScaleFactor int
	Tput        []float64
	Pairs       []PairRows
	Seeds       []policy.Seed
	// Migrated distinguishes a rebalance/recovery move (MigratedIn++) from a
	// fresh arrival (Admitted++) in the shard's accounting.
	Migrated bool
}

// RemoveArgs drops a completed job.
type RemoveArgs struct {
	Trace string
	JobID int
}

// ExtractArgs removes one job for migration, returning its throughput row
// and the source's warm seeds in the reply.
type ExtractArgs struct {
	Trace string
	JobID int
}

// ExtractReply is the migration payload: everything the destination needs to
// Install the job warm.
type ExtractReply struct {
	ScaleFactor int
	Tput        []float64
	Seeds       []policy.Seed
}

// AllocateArgs asks the shard to recompute its allocation over its resident
// jobs. Infos carries the coordinator-side view of each job (weights,
// remaining work, elapsed time, SLOs) keyed by JobInfo.ID; the shard
// overwrites Tput/ScaleFactor/NumActiveJobs from its own state
// (cluster.Shard.Allocate). Round is the request ID of the shard's reply
// cache: unique per round, so a retried or duplicated call is answered
// without re-solving.
type AllocateArgs struct {
	Trace string
	Round int64
	Infos []policy.JobInfo
}

// AllocateReply returns the shard's allocation in full: the resident job IDs
// in admission order (the unit-local index space), the scheduling units, and
// the time-fraction matrix. The coordinator needs the real allocation — not
// a summary — to apply round progress and merge budgets.
type AllocateReply struct {
	IDs   []int
	Units []core.Unit
	X     [][]float64
}

// AssignRoundArgs runs one mechanism round over the shard's current
// allocation. SkipJobs lists job IDs that must not run (finished since the
// allocation was computed).
type AssignRoundArgs struct {
	Trace        string
	Round        int64
	RoundSeconds float64
	SkipJobs     []int
}

// AssignRoundReply returns the round's assignments; UnitIdx indexes into the
// last AllocateReply's Units.
type AssignRoundReply struct {
	Assigns []scheduler.Assignment
}

// ObserveArgs feeds measured pair throughputs back into the shard's cache
// after a round executes, batched in observation order.
type ObserveArgs struct {
	Trace string
	Obs   []PairObservation
}

// PairObservation is one measured pair throughput.
type PairObservation struct {
	A, B, Type int
	Ta, Tb     float64
}

// ObserveJobArgs overwrites one resident job's isolated throughput row with
// measured (or clamped) values — the trust review's feedback push. Daemons
// treat it as an advisory idempotent update: unknown job IDs are a no-op, so
// a push racing a departure is harmless and retries are safe.
type ObserveJobArgs struct {
	Trace string
	JobID int
	Tput  []float64
}

// SnapshotArgs requests the shard's recovery snapshot.
type SnapshotArgs struct{}

// SnapshotReply is the periodic basis/throughput snapshot the coordinator
// stores per shard: the warm seeds (label, column IDs, serialized basis) and
// the shard's accounting. If the daemon later dies, the coordinator
// re-routes its jobs from its own membership mirror and hands these seeds to
// the destinations, so the recovered jobs' first solves are Basis.Remap
// repairs, not cold restarts — and Status keeps the dead shard's solve work
// countable in the merged result.
type SnapshotReply struct {
	Seeds  []policy.Seed
	Status ShardStatus
}

// StatusArgs requests the shard's accounting.
type StatusArgs struct{}

// ShardStatus is one shard's accounting snapshot: membership, routing and
// migration counters, and the policy-call and LP solve counters the
// simulator merges.
type ShardStatus struct {
	Index       int
	Jobs        []int // resident job IDs in admission order
	Admitted    int
	MigratedIn  int
	MigratedOut int
	PolicyCalls int
	PolicyTime  time.Duration
	Solve       policy.SolveStats
}

// Ack is the empty reply.
type Ack struct{}
