// Package gavel is a Go reproduction of Gavel, the heterogeneity-aware
// cluster scheduler for deep learning workloads from "Heterogeneity-Aware
// Cluster Scheduling Policies for Deep Learning Workloads" (Narayanan et
// al., OSDI 2020).
//
// Gavel expresses cluster scheduling policies — fairness, FIFO, makespan,
// cost, finish-time fairness, hierarchical multi-level policies — as
// optimization problems over each job's *effective throughput*: the
// time-weighted average throughput across the heterogeneous accelerators
// (and space-sharing combinations) in its allocation. A preemptive
// round-based scheduling mechanism then realizes the computed allocation.
//
// This package is the public facade: it re-exports the policy catalog, the
// simulator used for evaluation, and helpers to assemble clusters and
// workloads. The implementation lives in internal/ packages:
//
//   - internal/lp, internal/milp: simplex LP solver and branch-and-bound
//     MILP (Go has no standard LP ecosystem, so Gavel's optimization
//     substrate is built from scratch here);
//   - internal/core: allocation matrices, effective throughput, the shared
//     constraint structure (§3.1 of the paper);
//   - internal/policy: every policy in the paper's Table 1 plus the
//     baselines it evaluates against (heterogeneity-agnostic LAS/FIFO/FTF,
//     Gandiva ad-hoc packing, AlloX);
//   - internal/scheduler: the round-based mechanism (§5, Algorithm 1);
//   - internal/cluster: cluster specs, plus the shard engine of the sharded
//     scheduler service — one partition of the jobs and devices with its own
//     solve context, throughput cache, and mechanism;
//   - internal/rpc: the one coordinator (ClusterService) that drives K
//     shards concurrently — in memory or as daemons over TCP — routing
//     arrivals, rebalancing via warm-basis job migration, and merging rounds
//     under the global worker budget (SimulationConfig.NumShards);
//   - internal/simulator: the discrete-event evaluation substrate — one
//     round loop over the ClusterService, on one in-memory shard by default;
//   - internal/estimator: the matrix-completion throughput estimator
//     (§3.3);
//   - internal/experiments: regenerates every table and figure in §7.
//
// # Quick start
//
//	trace := gavel.NewTrace(gavel.TraceOptions{NumJobs: 50, LambdaPerHour: 3, Seed: 1})
//	res, err := gavel.Simulate(gavel.SimulationConfig{
//		Cluster: gavel.Simulated108(),
//		Policy:  gavel.MaxMinFairnessPolicy(),
//		Trace:   trace,
//	})
//	fmt.Printf("average JCT: %.2f hours\n", res.AvgJCT(0))
package gavel

import (
	"gavel/internal/cluster"
	"gavel/internal/core"
	"gavel/internal/estimator"
	"gavel/internal/policy"
	"gavel/internal/rpc"
	"gavel/internal/simulator"
	"gavel/internal/workload"
)

// Re-exported domain types. Downstream code builds traces and clusters with
// these and hands them to Simulate.
type (
	// Cluster describes a heterogeneous accelerator cluster.
	Cluster = cluster.Spec
	// AcceleratorType is one device class in a Cluster.
	AcceleratorType = cluster.AcceleratorType
	// Job is a single trace entry.
	Job = workload.Job
	// TraceOptions parameterizes synthetic trace generation.
	TraceOptions = workload.TraceOptions
	// Policy computes heterogeneity-aware allocations.
	Policy = policy.Policy
	// SimulationConfig parameterizes a simulation run.
	SimulationConfig = simulator.Config
	// SimulationResult is a completed simulation.
	SimulationResult = simulator.Result
	// JobResult is one job's outcome within a SimulationResult.
	JobResult = simulator.JobResult
	// EntityPolicy selects the intra-entity policy for hierarchical
	// scheduling.
	EntityPolicy = policy.EntityPolicy
	// SolveContext carries per-policy incremental solve state (cached
	// simplex bases, previous allocation, solve statistics) across
	// Policy.Allocate calls. Pass nil to Allocate for the stateless cold
	// path; the simulator manages one automatically unless
	// SimulationConfig.ColdSolves is set.
	SolveContext = policy.SolveContext
	// SolveStats is the accounting a SolveContext accumulates.
	SolveStats = policy.SolveStats
	// ThroughputCache maintains job/pair throughput matrices incrementally
	// under add/remove/observe, for callers driving policies directly.
	ThroughputCache = core.ThroughputCache
	// ShardStat is one shard's solve/migration accounting within a
	// SimulationResult (one entry by default, SimulationConfig.NumShards
	// otherwise).
	ShardStat = simulator.ShardStat
	// ShardRoutePolicy selects how a run routes arriving jobs across its
	// shards (SimulationConfig.ShardRoute).
	ShardRoutePolicy = cluster.RoutePolicy
	// ShardClient is the coordinator-side handle on one shard daemon —
	// in-memory (NewLocalShard) or remote (DialShard); both drive the
	// identical engine code path.
	ShardClient = rpc.ShardClient
	// ShardServer is the shard daemon engine behind a ShardClient.
	ShardServer = rpc.ShardServer
	// ClusterService is the coordinator of every run: it drives K
	// shards — in memory or daemons — through the versioned control plane:
	// routed admission, round-synchronized allocation, warm-basis rebalance
	// migrations, snapshot-based crash recovery.
	ClusterService = rpc.Service
	// ClusterServiceConfig parameterizes a ClusterService.
	ClusterServiceConfig = rpc.ServiceConfig
)

// Shard routing policies: RouteHash assigns jobs by
// ID modulo the shard count, RouteLeastLoaded to the shard with the
// smallest device demand.
const (
	RouteHash        = cluster.RouteHash
	RouteLeastLoaded = cluster.RouteLeastLoaded
)

// NewSolveContext returns an empty per-policy solve context for callers that
// invoke policies directly across reset events.
func NewSolveContext() *SolveContext { return policy.NewSolveContext() }

// NewThroughputCache returns an empty throughput cache over numTypes
// accelerator types.
func NewThroughputCache(numTypes int) *ThroughputCache { return core.NewThroughputCache(numTypes) }

// Intra-entity policies for hierarchical scheduling.
const (
	EntityFairness = policy.EntityFairness
	EntityFIFO     = policy.EntityFIFO
)

// Cluster constructors matching the paper's testbeds.
var (
	// Physical48 is the paper's physical cluster: 8 V100, 16 P100, 24 K80.
	Physical48 = cluster.Physical48
	// Simulated108 is the paper's simulated cluster: 36 of each type.
	Simulated108 = cluster.Simulated108
	// Small9 is the 3/3/3 cluster of the hierarchical timelines.
	Small9 = cluster.Small9
	// Small12 is the 4/4/4 cluster of the estimator experiment.
	Small12 = cluster.Small12
)

// NewTrace generates a synthetic trace (§7.1: Poisson arrivals, log-uniform
// durations, the 26-configuration model zoo of Table 2).
func NewTrace(opt TraceOptions) []Job { return workload.GenerateTrace(opt) }

// Simulate runs a trace through a policy on a simulated cluster.
func Simulate(cfg SimulationConfig) (*SimulationResult, error) { return simulator.Run(cfg) }

// NewLocalShard returns a shard engine and an in-memory client on it — the
// transport SimulationConfig.NumShards uses, exposed so callers can assemble
// their own ClusterService or SimulationConfig.ShardClients without sockets.
func NewLocalShard() (*ShardServer, ShardClient) { return rpc.NewLocalShard() }

// DialShard connects to a gavel-shard daemon, performing the protocol
// handshake.
func DialShard(addr string) (ShardClient, error) { return rpc.DialShard(addr) }

// NewClusterService assembles the coordinator over the given shard clients:
// it pushes each daemon's configuration and then drives admission,
// allocation, rounds, rebalancing, and recovery through the control plane.
func NewClusterService(cfg ClusterServiceConfig, shards []ShardClient) (*ClusterService, error) {
	return rpc.NewService(cfg, shards)
}

// MaxMinFairnessPolicy returns the heterogeneity-aware Least Attained
// Service policy (§4.1), the paper's flagship fairness policy. Enable
// space sharing via SimulationConfig.SpaceSharing.
func MaxMinFairnessPolicy() Policy { return &policy.MaxMinFairness{} }

// MaxMinFairnessWithPriorities folds job priorities into the fairness
// weights.
func MaxMinFairnessWithPriorities() Policy { return &policy.MaxMinFairness{UsePriorities: true} }

// FIFOPolicy returns the heterogeneity-aware first-in-first-out policy.
func FIFOPolicy() Policy { return policy.FIFO{} }

// ShortestJobFirstPolicy returns the heterogeneity-aware SJF policy.
func ShortestJobFirstPolicy() Policy { return policy.ShortestJobFirst{} }

// MakespanPolicy returns the heterogeneity-aware minimum-makespan policy.
func MakespanPolicy() Policy { return policy.Makespan{} }

// FinishTimeFairnessPolicy returns the heterogeneity-aware Themis policy.
func FinishTimeFairnessPolicy() Policy { return &policy.FinishTimeFairness{} }

// MinCostPolicy returns the throughput-per-dollar cost policy; with
// enforceSLOs it adds per-job deadline constraints.
func MinCostPolicy(enforceSLOs bool) Policy { return &policy.MinCost{EnforceSLOs: enforceSLOs} }

// MaxTotalThroughputPolicy returns the total-normalized-throughput policy.
func MaxTotalThroughputPolicy() Policy { return policy.MaxTotalThroughput{} }

// HierarchicalPolicy returns a multi-level policy: weighted fairness across
// entities, with the given per-entity intra policies (§4.3).
func HierarchicalPolicy(entityWeights map[int]float64, entityPolicies map[int]EntityPolicy) Policy {
	return &policy.Hierarchical{EntityWeight: entityWeights, EntityPolicyOf: entityPolicies}
}

// PlacementAwareMaxMinPolicy returns the §3.1 placement-sensitivity
// transformation of max-min fairness: consolidated and unconsolidated
// placements become separate virtual worker types sharing each physical
// type's capacity. unconsolidatedTput maps job index -> per-type
// spread-placement throughputs (nil entries use a conservative default).
func PlacementAwareMaxMinPolicy(unconsolidatedTput map[int][]float64) Policy {
	return &policy.PlacementAwareMaxMin{UnconsolidatedTput: unconsolidatedTput}
}

// HeterogeneityAgnostic wraps a policy into its heterogeneity-agnostic
// baseline (how the paper's "LAS"/"FIFO"/"FTF" baselines behave).
func HeterogeneityAgnostic(inner Policy) Policy { return &policy.Agnostic{Inner: inner} }

// AlloXPolicy returns the AlloX (min average JCT) related-work baseline.
func AlloXPolicy() Policy { return &policy.AlloX{} }

// GandivaPolicy returns the Gandiva ad-hoc space-sharing baseline.
func GandivaPolicy(seed int64) Policy { return policy.NewGandivaSpaceSharing(seed) }

// NewThroughputEstimator builds the matrix-completion throughput estimator
// (§3.3) over the model zoo, profiling new jobs against profilesPerJob
// references on the P100. Pass it as SimulationConfig.Provider.
func NewThroughputEstimator(profilesPerJob int, seed int64) simulator.ThroughputProvider {
	return estimator.New(workload.Zoo(), workload.P100, profilesPerJob, seed)
}
