package cluster

// RoutePolicy selects how the coordinator assigns arriving jobs to shards.
type RoutePolicy int

const (
	// RouteHash routes job ID modulo the shard count: stateless,
	// deterministic, and stable under churn.
	RouteHash RoutePolicy = iota
	// RouteLeastLoaded routes to the shard with the smallest device demand,
	// ties broken by lowest shard index.
	RouteLeastLoaded
)

// String implements fmt.Stringer.
func (r RoutePolicy) String() string {
	switch r {
	case RouteLeastLoaded:
		return "least-loaded"
	default:
		return "hash"
	}
}

// Migration records one job moved between shards by a rebalance or a crash
// recovery.
type Migration struct {
	Job  int
	From int
	To   int
}

// SplitWorkerCounts partitions per-type device counts across numShards:
// shard k receives counts[j]/numShards devices of type j, with the first
// counts[j]%numShards shards taking one extra. The slices always sum back to
// the global counts — the invariant that lets per-shard rounds merge without
// ever exceeding the cluster's budget.
func SplitWorkerCounts(counts []int, numShards int) [][]int {
	out := make([][]int, numShards)
	for k := range out {
		out[k] = make([]int, len(counts))
	}
	for j, n := range counts {
		base, extra := n/numShards, n%numShards
		for k := 0; k < numShards; k++ {
			out[k][j] = base
			if k < extra {
				out[k][j]++
			}
		}
	}
	return out
}
