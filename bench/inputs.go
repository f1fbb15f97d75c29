package main

import (
	"math"
	"math/rand"
	"sort"

	"gavel/internal/workload"
)

// Input generation. Every input is a function of the seed, but the seed
// picks a sample, not a population. The repo's trace generators draw
// arrivals, models and lengths independently; over the paper's log-uniform
// length law (2.5 decades) ten seeds of a 400-job trace spread a pass's total
// work (alloc_mb, which repeats exactly for one seed) by 14 % and wall_s by
// 20 % (interquartile range over median), and the benchmark is accepted only
// if ten runs on ten seeds stay well inside a bound of at most 25 %. So the
// benchmark keeps the generators' job records, tenant merge and arrival
// process and lays models and lengths out as a stratified sample:
//
//   - arrivals: the generator's Poisson stream, clumps and gaps included,
//     with time rescaled so the n-th arrival lands at n/lambda: a Poisson
//     process conditioned on its count over a fixed horizon. Still
//     open-loop: arrival times never depend on how fast the scheduler runs;
//   - models: every block of 26 consecutive arrivals holds each of the zoo's
//     26 configurations once, in seeded order;
//   - lengths: the log-uniform range is cut into 26 coarse ranges of
//     `blocks` sub-strata each; every block draws one job from each coarse
//     range, every sub-stratum is used once, and the model-to-range pairing
//     is a seeded Latin square, so each model meets a different range in
//     every block.
//
// Every seed therefore submits the same mix of models and the same spread of
// lengths at the same mean rate, in a different order with different
// pairings and different bursts. Measured over the same ten seeds, alloc_mb
// then spreads by 3 % and wall_s by 6 %.

// stratify overwrites model and length of jobs (one stream, in arrival
// order) with the stratified sample and rescales their arrival times to the
// horizon len(jobs)/lambdaPerHour.
func stratify(jobs []*workload.Job, rng *rand.Rand, lambdaPerHour, minMinutes, maxMinutes float64) {
	zoo := workload.Zoo()
	z := len(zoo)
	n := len(jobs)
	blocks := (n + z - 1) / z
	// fine[r] orders the blocks within coarse length range r: block b draws
	// its range-r job from sub-stratum fine[r][b].
	fine := make([][]int, z)
	for r := range fine {
		fine[r] = rng.Perm(blocks)
	}
	shift := rng.Perm(z)
	lo, hi := math.Log10(minMinutes), math.Log10(maxMinutes)
	stretch := float64(n) / lambdaPerHour * 3600 / jobs[n-1].Arrival
	for b := 0; b < blocks; b++ {
		cfgOf := rng.Perm(z)
		for p := 0; p < z && b*z+p < n; p++ {
			j := jobs[b*z+p]
			r := (cfgOf[p] + shift[b%z]) % z
			q := (float64(r*blocks+fine[r][b]) + rng.Float64()) / float64(z*blocks)
			durSec := math.Pow(10, lo+q*(hi-lo)) * 60
			j.Arrival *= stretch
			j.Config = zoo[cfgOf[p]]
			j.RefDuration = durSec
			j.TotalSteps = durSec * workload.Throughput(j.Config, workload.V100)
		}
	}
}

// The paper's length law (§7.1): log-uniform between 10^1.5 and 10^4
// minutes.
var (
	paperMinMinutes = math.Pow(10, 1.5)
	paperMaxMinutes = math.Pow(10, 4)
)

// simTrace is sim_las_ss's input: single-worker jobs at lambdaPerHour.
func simTrace(seed int64, numJobs int, lambdaPerHour float64) []workload.Job {
	trace := workload.GenerateTrace(workload.TraceOptions{NumJobs: numJobs, LambdaPerHour: lambdaPerHour, Seed: seed})
	ptrs := make([]*workload.Job, len(trace))
	for i := range trace {
		ptrs[i] = &trace[i]
	}
	stratify(ptrs, rand.New(rand.NewSource(seed*7919+13)), lambdaPerHour, paperMinMinutes, paperMaxMinutes)
	return trace
}

// tenantTrace is the service workloads' input: the repo's multi-tenant
// generator stamps tenant, SLO class and declare factor and draws each
// tenant's Poisson arrivals; each tenant's stream is then stratified on its
// own (so no tenant's load depends on the seed) and the streams are merged
// again by arrival.
func tenantTrace(seed int64, specs []workload.TenantSpec, minMinutes, maxMinutes float64) []workload.Job {
	trace := workload.GenerateTenantTrace(seed, specs)
	for ti, sp := range specs {
		var mine []*workload.Job
		for i := range trace {
			if trace[i].Tenant == sp.Name {
				mine = append(mine, &trace[i])
			}
		}
		stratify(mine, rand.New(rand.NewSource(seed*104729+int64(ti)*31+7)), sp.LambdaPerHour, minMinutes, maxMinutes)
	}
	sort.SliceStable(trace, func(a, b int) bool { return trace[a].Arrival < trace[b].Arrival })
	for i := range trace {
		trace[i].ID = i
	}
	return trace
}

// scaled sizes a job or repetition count by the pass's scale factor, never
// below min.
func scaled(n int, scale float64, min int) int {
	v := int(math.Round(float64(n) * scale))
	if v < min {
		v = min
	}
	return v
}
