package simulator

import (
	"fmt"
	"math"
	"sort"
	"time"

	"gavel/internal/chaos"
	"gavel/internal/policy"
	"gavel/internal/rpc"
	"gavel/internal/scheduler"
	"gavel/internal/workload"
)

// batchObserver collects one shard's measured pair throughputs in
// observation order, for a single Observe flush to the shard daemon after
// the round's progress is applied. Observations only feed the shard's
// throughput cache — nothing reads the cache again before the next
// allocation — so flushing a round's batch at once leaves the cache exactly
// as interleaved writes would.
//
// Under the submission plane the coordinator assigns wire job IDs distinct
// from trace IDs, so every observation is translated through wire; and the
// realized isolated rates (jobObserver) are collected as the worker-measured
// samples the trust review cross-checks against declarations.
type batchObserver struct {
	wire    func(int) int // trace job ID -> coordinator job ID
	measure bool
	obs     []rpc.PairObservation
	meas    []measuredSample
}

type measuredSample struct {
	id, typ int
	rate    float64
}

func (b *batchObserver) observePair(aID, bID, typ int, ta, tb float64) {
	b.obs = append(b.obs, rpc.PairObservation{A: b.wire(aID), B: b.wire(bID), Type: typ, Ta: ta, Tb: tb})
}

func (b *batchObserver) observeJob(id, typ int, rate float64) {
	if b.measure {
		b.meas = append(b.meas, measuredSample{id: b.wire(id), typ: typ, rate: rate})
	}
}

// runService executes a sharded simulation: one rpc.Service coordinates K
// shards — jobs and devices partitioned, each shard owning its own solve
// context, throughput cache, and round mechanism — through their
// ShardClients. Per round, every stale shard recomputes its allocation and
// every shard runs its mechanism concurrently; arrivals, departures,
// rebalancing migrations, and progress application are serialized in
// deterministic (trace and shard) order, so the merged Result is a pure
// function of the config — independent of GOMAXPROCS, goroutine scheduling,
// and transport: gob moves floats bit-exactly, so K shard daemons over TCP
// (Config.ShardClients) produce a byte-identical Result to the K in-memory
// shard servers Config.NumShards builds. Shard daemons, unlike in-memory
// shards, can die mid-run: the coordinator detects the loss on the next call,
// re-routes the dead shard's jobs onto the survivors with its last snapshot's
// warm seeds, and the recovered jobs' next solves land remapped, not cold.
func runService(cfg Config) (*Result, error) {
	e, err := newRunEnv(cfg)
	if err != nil {
		return nil, err
	}
	// Without ShardClients the shards live in this process: in-memory servers
	// handed the policy instance itself (so policies the wire catalog cannot
	// name still run) and the telemetry plane (so gavel_lp_* aggregates every
	// shard's solves).
	shardClients := cfg.ShardClients
	if len(shardClients) == 0 {
		shardClients = make([]rpc.ShardClient, cfg.NumShards)
		for k := range shardClients {
			srv, c := rpc.NewLocalShard()
			srv.UsePolicy(cfg.Policy)
			srv.SetObs(cfg.Obs)
			shardClients[k] = c
		}
	}
	spec, ok := rpc.SpecForPolicy(cfg.Policy)
	if !ok {
		// In-memory shards only (Validate): the name is a label, not a lookup.
		spec = rpc.PolicySpec{Name: cfg.Policy.Name()}
	}
	pairCap := 0
	if cfg.SpaceSharing {
		pairCap = e.maxPairs
	}
	snapEvery := cfg.SnapshotEveryRounds
	if snapEvery <= 0 {
		snapEvery = 10
	}

	trace, states, res := e.trace, e.states, e.res
	numShards := len(shardClients)
	stateOf := make(map[int]int, len(trace)) // coordinator job ID -> state index

	// Under the submission plane the coordinator assigns its own job IDs;
	// wireOf maps each trace job to the coordinator's ID (identity when
	// arrivals are admitted directly).
	admission := cfg.Admission != nil
	wireOf := make(map[int]int, len(trace))
	wire := func(id int) int { return id }
	if admission {
		wire = func(id int) int { return wireOf[id] }
	}

	// The service ships pair candidates with every job placement (arrival or
	// migration destination); rows come from the provider. Pairs never cross
	// shards: partitioning the jobs partitions the pairs. The shards apply
	// them HasPair-gated, so answering for an already-cached pair is
	// harmless.
	var pairs rpc.PairSource
	if cfg.SpaceSharing {
		pairs = func(aID, bID int) ([]float64, []float64) {
			a, b := states[stateOf[aID]].job, states[stateOf[bID]].job
			ta := make([]float64, len(e.workers))
			tb := make([]float64, len(e.workers))
			for t := range ta {
				if ca, cb, ok := e.provider.Colocated(a, b, t); ok {
					ta[t], tb[t] = ca, cb
				}
			}
			return ta, tb
		}
	}

	// The fault plane layers per client: the chaos transport injects seeded
	// faults below the retry policy, so every injected transient exercises
	// the production retry/degrade/recover path. The telemetry plane rides
	// both layers — retry outcome counters above, injected-fault counters
	// below — without touching either one's rand stream.
	clients := shardClients
	pol := cfg.RPC
	pol.Obs = cfg.Obs
	if cfg.Chaos.Enabled() || !pol.IsZero() || pol.Obs != nil {
		clients = make([]rpc.ShardClient, numShards)
		for k, c := range shardClients {
			wrapped := chaos.Wrap(c, cfg.Chaos, k)
			if tr, ok := wrapped.(*chaos.Transport); ok {
				tr.SetObs(cfg.Obs)
			}
			clients[k] = rpc.WithRetry(wrapped, pol)
		}
	}

	svc, err := rpc.NewService(rpc.ServiceConfig{
		Cluster:           cfg.Cluster,
		Policy:            spec,
		LP:                cfg.LPOptions,
		ColdSolves:        cfg.ColdSolves,
		Route:             cfg.ShardRoute,
		PairGainThreshold: pairGainThreshold,
		MaxPairsPerJob:    pairCap,
		Pairs:             pairs,
		Journal:           cfg.Journal,
		StaleAfterRounds:  cfg.StaleAfterRounds,
		Admission:         cfg.Admission,
		Obs:               cfg.Obs,
	}, clients)
	if err != nil {
		return nil, err
	}
	if cfg.Journal != "" {
		// The journal's lifetime is tied to the service: commit and release
		// it (and the wrapped clients) when the run ends.
		defer svc.Close()
	}

	allocStates := make([][]int, numShards) // per shard: state indices parallel to AllocIDs
	shardRounds := make([]int, numShards)   // rounds since the shard's last allocation
	reallocated := make([]bool, numShards)

	// Submission-plane bookkeeping: trace jobs submitted but not yet
	// admitted (keyed by coordinator job ID), and submissions refused with
	// CodeOverload, resubmitted next round — the simulator's stand-in for a
	// client honoring backpressure.
	pending := map[int]int{}
	var deferred []int
	tenantName := func(j *workload.Job) string {
		if j.Tenant == "" {
			return "tenant-0"
		}
		return j.Tenant
	}
	submitKey := func(j *workload.Job) string { return fmt.Sprintf("job-%d", j.ID) }
	submit := func(si int) error {
		st := states[si]
		j := st.job
		truth := make([]float64, len(e.workers))
		for t := range truth {
			truth[t] = e.provider.Isolated(j, t)
		}
		// The tenant declares truth x DeclareFactor; the trust review learns
		// the truth back from the workers' measured rates.
		df := j.DeclareFactor
		if df <= 0 {
			df = 1
		}
		decl := make([]float64, len(truth))
		for t, v := range truth {
			decl[t] = v * df
		}
		rep, err := svc.Submit(rpc.SubmitArgs{
			Tenant:      tenantName(j),
			Key:         submitKey(j),
			Name:        j.Config.Name(),
			TotalSteps:  j.TotalSteps,
			ScaleFactor: j.ScaleFactor,
			Tput:        decl,
			SLOClass:    j.SLOClass,
		})
		if err != nil {
			if rpc.CodeOf(err) == rpc.CodeOverload {
				deferred = append(deferred, si)
				return nil
			}
			return err
		}
		wireOf[j.ID] = rep.JobID
		stateOf[rep.JobID] = si
		if rep.State == rpc.SubmissionQueued {
			pending[rep.JobID] = si
		}
		return nil
	}

	now := 0.0
	completed := 0
	nextArrival := 0

	for completed < len(trace) && now < e.maxSec {
		// Retire finished jobs. Only stale shards can hold one: a finishing
		// job marks its shard dirty.
		for k := 0; k < numShards; k++ {
			if !svc.IsDirty(k) {
				continue
			}
			for _, id := range svc.ShardJobs(k) {
				if states[stateOf[id]].done {
					if err := svc.Remove(id); err != nil {
						return nil, err
					}
				}
			}
		}
		// Admit arrivals up to now: directly through the coordinator's
		// router, or — under the submission plane — streamed as tenant
		// submissions that the AdmitPending pass below admits under the
		// per-tenant quotas.
		if admission {
			retry := deferred
			deferred = nil
			for _, si := range retry {
				if err := submit(si); err != nil {
					return nil, err
				}
			}
			for nextArrival < len(trace) && trace[nextArrival].Arrival <= now {
				if err := submit(nextArrival); err != nil {
					return nil, err
				}
				nextArrival++
			}
			if err := svc.ExpireAbandoned(int64(res.Rounds)); err != nil {
				return nil, err
			}
			admitted, err := svc.AdmitPending(int64(res.Rounds))
			if err != nil {
				return nil, err
			}
			base := svc.NumJobs() - len(admitted)
			for i, id := range admitted {
				states[stateOf[id]].arrivalN = base + i + 1
				delete(pending, id)
			}
			// Submissions shed by the overload ladder (or withdrawn by the
			// abandoned-client TTL) will never be admitted: stop waiting on
			// them. Poll doubles as the tenants' liveness heartbeat.
			waiting := make([]int, 0, len(pending))
			for id := range pending {
				waiting = append(waiting, id)
			}
			sort.Ints(waiting)
			for _, id := range waiting {
				j := states[pending[id]].job
				rep, err := svc.Poll(rpc.PollArgs{Tenant: tenantName(j), Key: submitKey(j)})
				if err != nil {
					return nil, err
				}
				if rep.State == rpc.SubmissionRejected || rep.State == rpc.SubmissionWithdrawn {
					delete(pending, id)
				}
			}
		} else {
			for nextArrival < len(trace) && trace[nextArrival].Arrival <= now {
				st := states[nextArrival]
				j := st.job
				st.arrivalN = svc.NumJobs() + 1
				tput := make([]float64, len(e.workers))
				for t := range tput {
					tput[t] = e.provider.Isolated(j, t)
				}
				stateOf[j.ID] = nextArrival
				if _, err := svc.Admit(j.ID, j.ScaleFactor, tput); err != nil {
					return nil, err
				}
				nextArrival++
			}
		}
		if svc.NumJobs() == 0 {
			if len(pending) == 0 && len(deferred) == 0 {
				// Fast-forward to the next arrival boundary.
				if nextArrival >= len(trace) {
					break
				}
				steps := math.Ceil((trace[nextArrival].Arrival - now) / e.round)
				if steps < 1 {
					steps = 1
				}
				now += steps * e.round
				continue
			}
			// Nothing resident but submissions are waiting on quota or
			// backpressure: advance one full round so tokens refill and the
			// deferred resubmissions fire.
			now += e.round
			res.Rounds++
			if err := svc.EndRound(int64(res.Rounds)); err != nil {
				return nil, err
			}
			continue
		}

		// Periodic rebalance: migrate jobs from the most to the least
		// loaded shard; their warm LP bases travel in the Extract/Install
		// payloads.
		if cfg.RebalanceEveryRounds > 0 && res.Rounds > 0 && res.Rounds%cfg.RebalanceEveryRounds == 0 {
			migs, err := svc.Rebalance()
			if err != nil {
				return nil, err
			}
			for _, m := range migs {
				st := states[stateOf[m.Job]]
				// A migration is a physical placement change: server
				// indices are shard-local, so the old coordinates must not
				// suppress the checkpoint penalty or preemption count when
				// the destination shard happens to reuse the same numbers.
				st.lastType, st.lastServer, st.lastPartner = -1, -1, -1
			}
		}

		// Recompute every stale shard's allocation concurrently. The round
		// being built is the one after the last sealed: res.Rounds+1.
		building := int64(res.Rounds) + 1
		info := func(id int) policy.JobInfo { return states[stateOf[id]].jobInfo(now) }
		anyStale := false
		for k := range reallocated {
			alloc, _ := svc.Alloc(k)
			reallocated[k] = svc.IsDirty(k) || alloc == nil
			anyStale = anyStale || reallocated[k]
		}
		// PolicyTime is the wall-clock of the concurrent allocation phase —
		// what a caller actually waits for — not the sum of per-shard solve
		// times, which would overstate it by up to min(K, cores).
		allocStart := time.Now()
		if err := svc.AllocateAll(building, info, false); err != nil {
			return nil, fmt.Errorf("policy %s: %w", cfg.Policy.Name(), err)
		}
		if anyStale {
			res.PolicyTime += time.Since(allocStart)
		}
		for k, did := range reallocated {
			if !did {
				continue
			}
			_, ids := svc.Alloc(k)
			shardRounds[k] = 0
			allocStates[k] = allocStates[k][:0]
			for _, id := range ids {
				allocStates[k] = append(allocStates[k], stateOf[id])
			}
		}

		// Round assignment fans out to the shards; the merge validates the
		// per-shard and global budget invariants on the mirror. Progress,
		// cost, and completion apply serially in shard order, with each
		// shard's pair observations flushed back before the next shard.
		// Ideal execution skips the mechanism: every job advances exactly per
		// its shard's mirrored allocation.
		var perShard [][]scheduler.Assignment
		if !cfg.IdealExecution {
			skip := func(id int) bool { return states[stateOf[id]].done }
			if perShard, err = svc.AssignRound(building, e.round, skip); err != nil {
				return nil, err
			}
		}
		for k := 0; k < numShards; k++ {
			alloc, _ := svc.Alloc(k)
			if alloc == nil || len(alloc.Units) == 0 {
				continue
			}
			batch := &batchObserver{wire: wire, measure: admission}
			var dirtied bool
			if cfg.IdealExecution {
				advanceIdeal(cfg, states, allocStates[k], alloc, e.round, now, e.prices, e.noise, &dirtied, &completed, res)
			} else {
				if cfg.OnRound != nil {
					cfg.OnRound(now, alloc, allocStates[k], perShard[k])
				}
				applyAssignments(cfg, batch, states, allocStates[k], alloc, perShard[k], e.round, now, e.prices, e.noise, &dirtied, &completed, res)
			}
			if dirtied {
				if err := svc.MarkDirty(k); err != nil {
					return nil, err
				}
			}
			if err := svc.Observe(k, batch.obs); err != nil {
				return nil, err
			}
			// Worker-measured isolated rates flow back to the trust review,
			// journaled so a resumed coordinator re-derives the same EWMAs.
			for _, ms := range batch.meas {
				if err := svc.ObserveMeasured(ms.id, ms.typ, ms.rate); err != nil {
					return nil, err
				}
			}
		}

		now += e.round
		res.Rounds++
		for k := range shardRounds {
			shardRounds[k]++
			if cfg.ReallocEveryRounds > 0 && shardRounds[k] >= cfg.ReallocEveryRounds {
				if err := svc.MarkDirty(k); err != nil {
					return nil, err
				}
			}
		}
		// Periodic recovery snapshot: pull every daemon's warm seeds and
		// accounting. Read-only — results are unaffected by the cadence.
		if res.Rounds%snapEvery == 0 {
			if err := svc.SnapshotAll(); err != nil {
				return nil, err
			}
		}
		// A daemon died this round (any call above marks it down on a
		// transport failure): re-route its jobs onto the survivors with the
		// last snapshot's seeds. The destinations turn dirty and reallocate
		// next round — remapped solves, not cold ones.
		if svc.AnyDown() {
			migs, err := svc.Recover()
			if err != nil {
				return nil, err
			}
			for _, m := range migs {
				st := states[stateOf[m.Job]]
				st.lastType, st.lastServer, st.lastPartner = -1, -1, -1
			}
		}
		// Seal the round: the journal's fsync batch point. Without a journal
		// this only advances the service's round counter.
		if err := svc.EndRound(int64(res.Rounds)); err != nil {
			return nil, err
		}
	}

	// Final retire pass under the submission plane: the loop exits as the
	// last job completes, before the next iteration's retire would remove it
	// — resolve those submissions to Done so the tenant accounting is
	// terminal.
	if admission {
		for k := 0; k < numShards; k++ {
			for _, id := range svc.ShardJobs(k) {
				if states[stateOf[id]].done {
					if err := svc.Remove(id); err != nil {
						return nil, err
					}
				}
			}
		}
	}

	// Merge per-shard accounting into the Result. Dead daemons contribute
	// their last snapshot's accounting.
	res.NumShards = numShards
	res.Migrations = svc.Migrations()
	res.Rebalances = svc.Rebalances()
	res.Recoveries = svc.Recoveries()
	res.DegradedRounds = svc.DegradedRounds()
	res.Tenants = svc.TenantStats()
	res.Decisions = svc.Decisions()
	stats, err := svc.Stats()
	if err != nil {
		return nil, err
	}
	for _, st := range stats {
		res.PolicyCalls += st.PolicyCalls
		cold := st.Solve.Solves - st.Solve.WarmHits - st.Solve.RemapHits
		res.ShardStats = append(res.ShardStats, ShardStat{
			Shard:             st.Index,
			JobsAdmitted:      st.Admitted,
			MigratedIn:        st.MigratedIn,
			MigratedOut:       st.MigratedOut,
			LPSolves:          st.Solve.Solves,
			WarmSolves:        st.Solve.WarmHits,
			RemappedSolves:    st.Solve.RemapHits,
			ColdSolves:        cold,
			SimplexIterations: st.Solve.Iterations,

			PresolveReductions: st.Solve.PresolveReductions,
			DualIterations:     st.Solve.DualIterations,
			StaleAllocs:        svc.StaleAllocs(st.Index),
			QuarantinedJobs:    svc.QuarantinedJobs(st.Index),
		})
		res.addSolveStats(st.Solve)
	}
	res.finish(states)
	return res, nil
}
