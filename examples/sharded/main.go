// Sharded: run the same trace through the monolithic scheduler and the
// sharded scheduler service (SimulationConfig.NumShards), comparing policy
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
			NumShards:            shards, // 0 = monolithic loop
			RebalanceEveryRounds: 10,
			ShardRoute:           gavel.RouteLeastLoaded,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	mono := run(0)
	fmt.Printf("monolithic:  avg JCT %5.2f h   policy time %8v   solves %d (%d warm, %d remapped)\n",
		mono.AvgJCT(5), mono.PolicyTime.Round(1e6), mono.LPSolves, mono.WarmSolves, mono.RemappedSolves)

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
