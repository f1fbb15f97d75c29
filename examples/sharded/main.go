// Sharded: run the same trace through the scheduler service on one shard
// (the default) and on four (SimulationConfig.NumShards), comparing policy
// wall-clock and per-shard LP solve buckets. With K shards, each shard owns
// its own solve context, throughput cache, and round mechanism over a slice
// of the cluster; the coordinator (the same rpc.Service that drives
// gavel-shard daemons, here over in-memory shard servers) routes arrivals,
// rebalances by migrating jobs between shards — carrying their warm LP bases
// along, so migrations cost remapped solves instead of cold ones — and merges
// every round under the global per-type worker budget.
package main

import (
	"fmt"
	"log"

	"gavel"
)

func main() {
	trace := gavel.NewTrace(gavel.TraceOptions{
		NumJobs:       96,
		LambdaPerHour: 12,
		Seed:          3,
	})

	run := func(shards int) *gavel.SimulationResult {
		res, err := gavel.Simulate(gavel.SimulationConfig{
			Cluster:              gavel.Simulated108(),
			Policy:               gavel.MaxMinFairnessPolicy(),
			Trace:                trace,
			SpaceSharing:         true,
			NumShards:            shards,
			RebalanceEveryRounds: 10,
			ShardRoute:           gavel.RouteLeastLoaded,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	one := run(1)
	fmt.Printf("K=1 shard:   avg JCT %5.2f h   policy time %8v   solves %d (%d warm, %d remapped)\n",
		one.AvgJCT(5), one.PolicyTime.Round(1e6), one.LPSolves, one.WarmSolves, one.RemappedSolves)

	sharded := run(4)
	fmt.Printf("K=4 shards:  avg JCT %5.2f h   policy time %8v   solves %d (%d warm, %d remapped)\n",
		sharded.AvgJCT(5), sharded.PolicyTime.Round(1e6), sharded.LPSolves, sharded.WarmSolves, sharded.RemappedSolves)
	fmt.Printf("             %d migrations across %d rebalances\n\n", sharded.Migrations, sharded.Rebalances)

	fmt.Println("per-shard LP accounting:")
	for _, st := range sharded.ShardStats {
		fmt.Printf("  shard %d: %3d admitted  %2d in / %2d out migrated   solves %3d = %d warm + %d remapped + %d cold\n",
			st.Shard, st.JobsAdmitted, st.MigratedIn, st.MigratedOut,
			st.LPSolves, st.WarmSolves, st.RemappedSolves, st.ColdSolves)
	}
}
