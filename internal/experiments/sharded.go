package experiments

import (
	"fmt"
	"strings"
	"time"

	"gavel/internal/cluster"
	"gavel/internal/policy"
	"gavel/internal/simulator"
	"gavel/internal/workload"
)

// ShardedOutcome reports the scheduler service across shard counts:
// end-to-end policy wall-clock and solve buckets per K, on the same trace.
type ShardedOutcome struct {
	Report string
	Shards []int
	// PolicySeconds[i] is total Policy.Allocate wall-clock under Shards[i];
	// AvgJCTHours[i] the corresponding mean JCT.
	PolicySeconds []float64
	AvgJCTHours   []float64
}

// String implements fmt.Stringer.
func (o *ShardedOutcome) String() string { return o.Report }

// Sharded runs one trace through the scheduler service at the given shard
// counts (K=1 is the default simulator run): jobs and devices are
// partitioned per shard, allocations and rounds run concurrently, and the
// coordinator rebalances every 10 rounds with warm-basis job migration. The
// interesting outputs are the policy wall-clock (per-shard LPs are
// superlinearly cheaper than the one-shard LP, and they solve in parallel)
// and the solve buckets (migrations land in the remapped bucket, not the
// cold one).
func Sharded(opt Options, shardCounts []int) (*ShardedOutcome, error) {
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 4}
	}
	jobs := opt.Jobs
	if jobs <= 0 {
		jobs = 120
	}
	trace := workload.GenerateTrace(workload.TraceOptions{
		NumJobs: jobs, LambdaPerHour: 12, Seed: 1,
	})
	out := &ShardedOutcome{}
	var b strings.Builder
	b.WriteString("Sharded scheduler service: K-shard runs of the same trace\n")
	fmt.Fprintf(&b, "%-12s %12s %10s %10s %10s %10s %12s\n",
		"engine", "policy time", "avg JCT", "solves", "remapped", "cold", "migrations")
	for _, k := range shardCounts {
		res, err := simulator.Run(simulator.Config{
			Cluster:              cluster.Simulated108(),
			Policy:               &policy.MaxMinFairness{},
			Trace:                trace,
			SpaceSharing:         true,
			NumShards:            k,
			RebalanceEveryRounds: 10,
			ShardRoute:           cluster.RouteLeastLoaded,
		})
		if err != nil {
			return nil, fmt.Errorf("sharded k=%d: %w", k, err)
		}
		cold := res.LPSolves - res.WarmSolves - res.RemappedSolves
		fmt.Fprintf(&b, "%-12s %12v %9.2fh %10d %10d %10d %12d\n",
			fmt.Sprintf("K=%d", k), res.PolicyTime.Round(time.Millisecond), res.AvgJCT(5),
			res.LPSolves, res.RemappedSolves, cold, res.Migrations)
		out.Shards = append(out.Shards, k)
		out.PolicySeconds = append(out.PolicySeconds, res.PolicyTime.Seconds())
		out.AvgJCTHours = append(out.AvgJCTHours, res.AvgJCT(5))
	}
	out.Report = b.String()
	return out, nil
}
