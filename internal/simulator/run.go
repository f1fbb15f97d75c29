package simulator

import (
	"fmt"
	"math"
	"sort"

	"gavel/internal/chaos"
	"gavel/internal/cluster"
	"gavel/internal/policy"
	"gavel/internal/rpc"
	"gavel/internal/workload"
)

// batchObserver collects one shard's measured pair throughputs in
// observation order, for a single Observe flush to the shard after the
// round's progress is applied. Observations only feed the shard's throughput
// cache — nothing reads the cache again before the next allocation — so
// flushing a round's batch at once leaves the cache exactly as interleaved
// writes would. One observer serves the whole run: the shard has consumed a
// batch by the time its flush returns.
//
// Under the submission plane the coordinator assigns wire job IDs distinct
// from trace IDs, so every observation is translated through wire; and the
// realized isolated rates (noise included) of every non-pair assignment are
// collected as the worker-measured samples the trust review cross-checks
// against declared rows. Pair assignments are excluded: their realized rates
// measure colocation, not the isolated row the declaration claims.
type batchObserver struct {
	wire    func(int) int // trace job ID -> coordinator job ID
	measure bool
	obs     []rpc.PairObservation
	meas    []rpc.MeasuredSample
}

func (b *batchObserver) reset() { b.obs, b.meas = b.obs[:0], b.meas[:0] }

func (b *batchObserver) observePair(aID, bID, typ int, ta, tb float64) {
	b.obs = append(b.obs, rpc.PairObservation{A: b.wire(aID), B: b.wire(bID), Type: typ, Ta: ta, Tb: tb})
}

func (b *batchObserver) observeJob(id, typ int, rate float64) {
	if b.measure {
		b.meas = append(b.meas, rpc.MeasuredSample{JobID: b.wire(id), Type: typ, Rate: rate})
	}
}

// Run executes the simulation as a caller of the one round protocol there is
// (rpc.Service.RunRound, which owns the order of a round's steps): an
// rpc.Service coordinating K shards (the default Config is K = 1: one in-memory
// shard owning the whole cluster), jobs and devices partitioned, each shard with
// its own solve context, throughput cache, and round mechanism behind its
// ShardClient. Per round, every stale shard recomputes its allocation and
// every shard runs its mechanism concurrently; arrivals, departures,
// rebalancing migrations, and progress application are serialized in
// deterministic (trace and shard) order, so the merged Result is a pure
// function of the config — independent of GOMAXPROCS, goroutine scheduling,
// and transport: the control plane moves floats bit-exactly, so K shard
// daemons over TCP (Config.ShardClients) produce a byte-identical Result to
// the K in-memory shard servers Config.NumShards builds. Shard daemons, unlike in-memory
// shards, can die mid-run: the coordinator detects the loss on the next call,
// re-routes the dead shard's jobs onto the survivors with its last snapshot's
// warm seeds, and the recovered jobs' next solves land remapped, not cold.
func Run(cfg Config) (*Result, error) {
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
		shardClients = make([]rpc.ShardClient, max(cfg.NumShards, 1))
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
	// Recovery snapshots are for shards that can be lost (supplied clients,
	// injected crashes) or a journal that records them; shards built here, with
	// neither, would export seeds nobody can ever read.
	snapshots := len(cfg.ShardClients) > 0 || cfg.Journal != "" || cfg.Chaos.Enabled()
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
	batch := &batchObserver{wire: wire, measure: admission}

	// A StableProvider's rows are queried once, when a job lands on a shard,
	// and the shard's cache carries them from there. Any other provider may
	// change any answer at any time (the estimator's cross-pair learning), so
	// what it says at landing is never read: pairs ship as zero placeholders
	// and refreshRows pushes current rows before each allocation.
	stable := false
	if sp, ok := e.provider.(StableProvider); ok {
		stable = sp.StableEstimates()
	}

	// The service ships pair candidates with every job placement (arrival or
	// migration destination). Pairs never cross shards: partitioning the jobs
	// partitions the pairs. The shards apply them HasPair-gated, so answering
	// for an already-cached pair is harmless. The provider is always asked
	// about a pair lower trace position first, whichever job is landing.
	var pairs rpc.PairSource
	if cfg.SpaceSharing {
		rows := make([]float64, 2*e.numTypes) // read by the service before its next query
		pairs = func(aID, bID int) ([]float64, []float64) {
			clear(rows)
			ta, tb := rows[:e.numTypes:e.numTypes], rows[e.numTypes:]
			if !stable {
				return ta, tb
			}
			lo, hi, tlo, thi := stateOf[aID], stateOf[bID], ta, tb
			if lo > hi {
				lo, hi, tlo, thi = hi, lo, tb, ta
			}
			for t := range tlo {
				if clo, chi, ok := e.provider.Colocated(states[lo].job, states[hi].job, t); ok {
					tlo[t], thi[t] = clo, chi
				}
			}
			return ta, tb
		}
	}

	pol := cfg.RPC
	pol.Obs = cfg.Obs
	clients := make([]rpc.ShardClient, numShards)
	for k, c := range shardClients {
		clients[k], _ = chaos.Stack(c, cfg.Chaos, k, pol)
	}

	svc, err := rpc.NewService(rpc.ServiceConfig{
		Cluster:           cfg.Cluster,
		Policy:            spec,
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

	// refreshRows is the unstable provider's "fresh cache per reset": right
	// before stale shard k reallocates, every row its policy input reads is
	// re-queried — isolated rows, then every single-worker pair on every type,
	// residents in ascending trace position, lower position first (the
	// estimator fingerprints a job from one rng stream on first contact, so
	// the order is part of the result) — and pushed to the shard. Under the
	// submission plane isolated rows are the tenants' declarations, not the
	// provider's, and stay as submitted.
	var resident []int
	refreshRows := func(k int) error {
		resident = resident[:0]
		for _, id := range svc.ShardJobs(k) {
			resident = append(resident, stateOf[id])
		}
		sort.Ints(resident)
		if !admission {
			for _, si := range resident {
				j := states[si].job
				if err := svc.ObserveJob(j.ID, e.isolatedRow(j)); err != nil {
					return err
				}
			}
		}
		if !cfg.SpaceSharing {
			return nil
		}
		batch.reset()
		for i, sa := range resident {
			ja := states[sa].job
			if ja.ScaleFactor > 1 {
				continue
			}
			for _, sb := range resident[i+1:] {
				jb := states[sb].job
				if jb.ScaleFactor > 1 {
					continue
				}
				for t := 0; t < e.numTypes; t++ {
					ta, tb, ok := e.provider.Colocated(ja, jb, t)
					if !ok {
						ta, tb = 0, 0
					}
					batch.observePair(ja.ID, jb.ID, t, ta, tb)
				}
			}
		}
		return svc.Observe(k, batch.obs)
	}

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
		j := states[si].job
		// The tenant declares truth x DeclareFactor; the trust review learns
		// the truth back from the workers' measured rates.
		df := j.DeclareFactor
		if df <= 0 {
			df = 1
		}
		decl := e.isolatedRow(j)
		for t := range decl {
			decl[t] *= df
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
	nextArrival := 0
	allocStates := make([][]int, numShards) // per shard: state indices parallel to the allocation's IDs

	// The simulator's side of the round protocol (rpc.RunRound owns the order).
	plan := &rpc.RoundPlan{
		RoundSeconds:   e.round,
		RebalanceEvery: cfg.RebalanceEveryRounds,
		ReallocEvery:   cfg.ReallocEveryRounds,
		Ideal:          cfg.IdealExecution,
		Done:           func(id int) bool { return states[stateOf[id]].done },
		Info:           func(id int) policy.JobInfo { return states[stateOf[id]].jobInfo(now) },
		// Arrivals up to now: directly through the coordinator's router, or —
		// under the submission plane — streamed as tenant submissions
		// (backpressured ones first) for the driver's AdmitPending pass to
		// admit under the per-tenant quotas.
		Arrive: func() error {
			retry := deferred
			deferred = nil
			for _, si := range retry {
				if err := submit(si); err != nil {
					return err
				}
			}
			for ; nextArrival < len(trace) && trace[nextArrival].Arrival <= now; nextArrival++ {
				if admission {
					if err := submit(nextArrival); err != nil {
						return err
					}
					continue
				}
				st := states[nextArrival]
				st.arrivalN = svc.NumJobs() + 1
				stateOf[st.job.ID] = nextArrival
				if _, err := svc.Admit(st.job.ID, st.job.ScaleFactor, e.isolatedRow(st.job)); err != nil {
					return err
				}
			}
			return nil
		},
		Admitted: func(admitted []int) error {
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
					return err
				}
				if rep.State == rpc.SubmissionRejected || rep.State == rpc.SubmissionWithdrawn {
					delete(pending, id)
				}
			}
			return nil
		},
		// Nothing resident: with a submission waiting on quota or backpressure
		// a full round passes (tokens refill, deferred resubmissions fire);
		// with none the loop below fast-forwards and no round is counted.
		Idle: func() bool { return len(pending) == 0 && len(deferred) == 0 },
		// A migration is a physical placement change.
		Migrated: func(migs []cluster.Migration, _ bool) {
			for _, m := range migs {
				states[stateOf[m.Job]].forgetPlacement()
			}
		},
		// Progress, cost, and completion of one shard's round. Ideal execution
		// has no assignments: every job advances exactly per the allocation.
		Progress: func(sh rpc.ShardRound) (finished bool, _ []rpc.PairObservation, _ []rpc.MeasuredSample) {
			active := allocStates[sh.Shard]
			if sh.Fresh {
				active = active[:0]
				for _, id := range sh.IDs {
					active = append(active, stateOf[id])
				}
				allocStates[sh.Shard] = active
			}
			batch.reset()
			if cfg.IdealExecution {
				return e.advanceIdeal(active, sh.Alloc, now), nil, nil
			}
			if cfg.OnRound != nil {
				cfg.OnRound(now, sh.Alloc, active, sh.Assigns)
			}
			finished = e.applyAssignments(batch, active, sh.Alloc, sh.Assigns, now)
			return finished, batch.obs, batch.meas
		},
	}
	if snapshots {
		plan.SnapshotEvery = snapEvery
	}
	if !stable {
		plan.Refresh = refreshRows
	}

	for e.completed < len(trace) && now < e.maxSec {
		out, err := svc.RunRound(plan)
		if err != nil {
			return nil, err
		}
		if !out.Sealed {
			// Fast-forward to the next arrival boundary.
			if nextArrival >= len(trace) {
				break
			}
			now += math.Max(1, math.Ceil((trace[nextArrival].Arrival-now)/e.round)) * e.round
			continue
		}
		// PolicyTime is the wall-clock of the concurrent allocation phase —
		// what a caller actually waits for — not the sum of per-shard solve
		// times, which would overstate it by up to min(K, cores).
		res.PolicyTime += out.PolicyTime
		now += e.round
		res.Rounds++
	}

	// Final retire pass under the submission plane: the loop exits as the
	// last job completes, before the next round's retire would remove it —
	// resolve those submissions to Done so the tenant accounting is terminal.
	if admission {
		if err := svc.Retire(plan.Done); err != nil {
			return nil, err
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
