// gavel-sched is the scheduler daemon for physical deployments: the
// coordinator (rpc.Service) driving its shards through the round protocol
// (rpc.RunRound), and the worker lease plane (internal/rpc) on a TCP port,
// leasing each sealed round's merged assignments to workers. With -shards
// addr,addr the shards are remote gavel-shard processes behind the versioned
// control plane — the paper's scheduler architecture as separate processes:
// policy on the shards, mechanism merged at the coordinator, warm-basis
// rebalance migrations, periodic recovery snapshots. Without -shards there is
// one shard, in this process: the same coordinator, the same policy, no
// sockets (what NumShards = 0 is to the simulator).
//
// With -submit-listen, the coordinator also serves the client submission
// plane (protocol v3): tenants stream jobs through gavel-submit, admission is
// rationed by the GAVEL_SUBMIT_* quotas, and the declared-vs-measured trust
// review runs between rounds; shed/quarantine decisions are logged and, with
// -decision-log, rewritten to a file each round.
//
// Usage:
//
//	gavel-sched -listen :8642 -jobs 8 -round 10
//	gavel-sched -listen :8642 -shards 127.0.0.1:8650,127.0.0.1:8651 -policy max_min_fairness
//	gavel-sched -listen :8642 -shards ... -submit-listen :8643 -decision-log decisions.log
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"time"

	"gavel/internal/chaos"
	"gavel/internal/cluster"
	"gavel/internal/obs"
	"gavel/internal/policy"
	"gavel/internal/rpc"
	"gavel/internal/workload"
)

// config is the daemon's whole configuration; main parses flags straight
// into it.
type config struct {
	listen string
	shards string // comma-separated gavel-shard addresses; empty = one in-memory shard
	jobs   int
	round  float64
	steps  float64

	policy    string
	gpus      string
	rebalance int
	realloc   int
	snapshot  int

	submitListen string
	decisionLog  string
	drainRounds  int

	journal   string
	chaos     string
	rpc       rpc.CallPolicy
	telemetry obs.Options

	// leases, when set, wraps the lease plane's source (tests assert on what
	// leaves the process, and when).
	leases func(*planSource) rpc.LeaseSource
}

func main() {
	cfg := config{rpc: rpc.CallPolicyFromEnv(), telemetry: obs.OptionsFromEnv()}
	flag.StringVar(&cfg.listen, "listen", "127.0.0.1:8642", "address to serve the worker lease plane on")
	flag.StringVar(&cfg.shards, "shards", "", "comma-separated gavel-shard addresses (empty = one in-memory shard)")
	flag.IntVar(&cfg.jobs, "jobs", 4, "number of synthetic jobs to run")
	flag.Float64Var(&cfg.round, "round", 10, "round duration in seconds")
	flag.Float64Var(&cfg.steps, "steps", 2000, "training steps per job")

	flag.StringVar(&cfg.policy, "policy", "max_min_fairness", "allocation policy")
	flag.StringVar(&cfg.gpus, "gpus", "v100:4,p100:4,k80:8", "cluster spec: name:count[:perServer],...")
	flag.IntVar(&cfg.rebalance, "rebalance-every", 10, "rounds between shard rebalances (0 = off)")
	flag.IntVar(&cfg.realloc, "realloc-every", 4, "rounds a shard goes without reallocating before one is forced (0 = off)")
	flag.IntVar(&cfg.snapshot, "snapshot-every", 1, "rounds between recovery snapshots")

	flag.StringVar(&cfg.submitListen, "submit-listen", "", "address to serve the client submission plane on (empty = off)")
	flag.StringVar(&cfg.decisionLog, "decision-log", "", "file rewritten each round with the admission decision log (shed/quarantine/abandon)")
	flag.IntVar(&cfg.drainRounds, "drain-rounds", 3, "with -submit-listen, idle rounds with no resident or queued submissions before exiting")

	flag.StringVar(&cfg.telemetry.Listen, "obs-listen", cfg.telemetry.Listen, "address to serve /metrics, /statusz, /debug/trace, and pprof on (default GAVEL_OBS_LISTEN; empty = off)")
	flag.StringVar(&cfg.telemetry.TracePath, "obs-trace", cfg.telemetry.TracePath, "JSONL span-log path (default GAVEL_OBS_TRACE; empty = ring buffer only)")

	flag.StringVar(&cfg.journal, "journal", "", "coordinator write-ahead-log path (empty = not durable; an existing journal resumes the run)")
	flag.StringVar(&cfg.chaos, "chaos", "", "fault-injection spec, e.g. seed=42,drop=0.05,dup=0.01,delay=0.1,maxdelay=20ms,partition=40+10,crash=200")
	flag.DurationVar(&cfg.rpc.Timeout, "rpc-timeout", cfg.rpc.Timeout, "per-call shard RPC deadline (default GAVEL_RPC_TIMEOUT; 0 = none)")
	flag.IntVar(&cfg.rpc.Retries, "rpc-retries", cfg.rpc.Retries, "transient-failure retries per shard call (default GAVEL_RPC_RETRIES)")
	flag.DurationVar(&cfg.rpc.Backoff, "rpc-backoff", cfg.rpc.Backoff, "base retry backoff (default GAVEL_RPC_BACKOFF)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, cfg); err != nil {
		log.Fatalf("gavel-sched: %v", err)
	}
}

// parseCluster reads "name:count[:perServer],..." into a cluster spec, with
// on-demand prices filled from the standard price table.
func parseCluster(s string) (cluster.Spec, error) {
	prices := map[string]float64{
		"v100": cluster.PriceV100, "p100": cluster.PriceP100, "k80": cluster.PriceK80,
	}
	var spec cluster.Spec
	for _, entry := range strings.Split(s, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ":")
		if len(parts) < 2 {
			return spec, fmt.Errorf("bad -gpus entry %q (want name:count[:perServer])", entry)
		}
		count, err := strconv.Atoi(parts[1])
		if err != nil || count <= 0 {
			return spec, fmt.Errorf("bad device count in -gpus entry %q", entry)
		}
		perServer := count
		if len(parts) > 2 {
			if perServer, err = strconv.Atoi(parts[2]); err != nil || perServer <= 0 {
				return spec, fmt.Errorf("bad per-server count in -gpus entry %q", entry)
			}
		}
		spec.Types = append(spec.Types, cluster.AcceleratorType{
			Name: parts[0], Count: count, PricePerHour: prices[parts[0]], PerServer: perServer,
		})
	}
	return spec, nil
}

// planSource leases the coordinator's merged round assignments to workers:
// one queue of job IDs per accelerator type, replaced after each round's seal,
// popped per lease request. It implements rpc.LeaseSource (called under the
// scheduler's lock; it only takes its own).
type planSource struct {
	mu    sync.Mutex
	round int64 // the sealed round the queues came from
	queue map[string][]int
}

func (p *planSource) NextLease(_ int, accType, _ string) []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	q := p.queue[accType]
	if len(q) == 0 {
		return nil
	}
	p.queue[accType] = q[1:]
	return []int{q[0]}
}

func (p *planSource) set(round int64, plan map[string][]int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.round, p.queue = round, plan
}

// run drives the shards through the round protocol and leases each sealed
// round's merged assignments to workers, until the synthetic batch completes
// (and the submission plane has drained) or ctx is cancelled.
func run(ctx context.Context, cfg config) error {
	spec, err := parseCluster(cfg.gpus)
	if err != nil {
		return err
	}
	// Map spec types onto the model zoo's oracle indices for throughput rows.
	wIdx := make([]int, len(spec.Types))
	for i, t := range spec.Types {
		wIdx[i] = -1
		for j, name := range workload.TypeNames {
			if name == t.Name {
				wIdx[i] = j
			}
		}
		if wIdx[i] < 0 {
			return fmt.Errorf("accelerator type %q has no oracle throughputs (known: %v)", t.Name, workload.TypeNames)
		}
	}
	faults, err := chaos.ParseSpec(cfg.chaos)
	if err != nil {
		return err
	}

	// The telemetry plane: one registry + trace ring shared by everything in
	// this process — the coordinator, the lease plane, the retry layer, and
	// the chaos transports. Nil when -obs-listen and -obs-trace are both off.
	plane, obsSrv, traceFile, err := cfg.telemetry.Build()
	if err != nil {
		return err
	}
	if obsSrv != nil {
		defer obsSrv.Close()
		log.Printf("gavel-sched: telemetry on %s (/metrics /statusz /debug/trace /debug/pprof)", obsSrv.Addr())
	}
	if traceFile != nil {
		defer traceFile.Close()
	}
	cfg.rpc.Obs = plane

	var clients []rpc.ShardClient
	if cfg.shards == "" {
		srv, c := rpc.NewLocalShard()
		srv.SetObs(plane)
		clients = []rpc.ShardClient{c}
	} else {
		// Dial with the deadline only (it lives on the socket); retries and
		// call metrics belong to the fault-plane stack's outer layer.
		for _, addr := range strings.Split(cfg.shards, ",") {
			c, err := rpc.DialShardWith(strings.TrimSpace(addr), rpc.CallPolicy{Timeout: cfg.rpc.Timeout})
			if err != nil {
				return fmt.Errorf("shard %s: %w", addr, err)
			}
			clients = append(clients, c)
		}
	}
	var transports []*chaos.Transport
	for i, c := range clients {
		var tr *chaos.Transport
		if clients[i], tr = chaos.Stack(c, faults, i, cfg.rpc); tr != nil {
			transports = append(transports, tr)
		}
	}
	svcCfg := rpc.ServiceConfig{
		Cluster: spec,
		Policy:  rpc.PolicySpec{Name: cfg.policy},
		Journal: cfg.journal,
		Obs:     plane,
	}
	submission := cfg.submitListen != ""
	if submission {
		adm := rpc.AdmissionConfigFromEnv()
		svcCfg.Admission = &adm
	}
	svc, err := rpc.NewService(svcCfg, clients)
	if err != nil {
		return err
	}
	defer svc.Close()
	if svc.Resumed() {
		log.Printf("gavel-sched: resumed from journal (round %d, %d jobs resident, %d recoveries so far)",
			svc.Round(), svc.NumJobs(), svc.Recoveries())
	}

	leases := &planSource{}
	var src rpc.LeaseSource = leases
	if cfg.leases != nil {
		src = cfg.leases(leases)
	}
	sched := rpc.NewScheduler(cfg.round, src)
	sched.SetObs(plane)
	addr, err := sched.Serve(cfg.listen)
	if err != nil {
		return err
	}
	defer sched.Close()
	if obsSrv != nil {
		obsSrv.AddStatus("coordinator", svc.StatusText)
		obsSrv.AddStatus("leases", sched.StatusText)
		if submission {
			obsSrv.AddStatus("tenants", svc.TenantStatusText)
		}
	}
	log.Printf("gavel-sched: protocol v%d, lease plane on %s, %d shards, policy %s",
		rpc.ProtocolVersion, addr, len(clients), cfg.policy)

	// lease enters a streamed submission into the lease plane.
	lease := func(si rpc.SubmissionInfo, how string) {
		sched.Submit(rpc.JobSpec{JobID: si.JobID, TotalSteps: si.TotalSteps})
		log.Printf("gavel-sched: %s submission job %d (%s/%s) -> shard %d", how, si.JobID, si.Tenant, si.Key, si.Shard)
	}
	if submission {
		sub := rpc.NewSubmitServer(svc)
		subAddr, err := sub.Serve(cfg.submitListen)
		if err != nil {
			return err
		}
		defer sub.Close()
		log.Printf("gavel-sched: submission plane on %s", subAddr)
		// A resumed journal replays the ingress too: re-install lease specs
		// for every submission that was admitted when the coordinator died.
		// Queued submissions stay queued and re-enter through AdmitPending.
		for _, si := range svc.Submissions() {
			if si.State == rpc.SubmissionAdmitted {
				lease(si, "resumed (journal)")
			}
		}
	}

	// Submit the synthetic batch to both planes: leases need step counts,
	// shards need throughput rows over the spec's accelerator types.
	zoo := workload.Zoo()
	submitted := time.Now()
	for i := 0; i < cfg.jobs; i++ {
		model := zoo[(i*7)%len(zoo)]
		tput := make([]float64, len(spec.Types))
		for t := range spec.Types {
			if workload.Fits(model, wIdx[t]) {
				tput[t] = workload.Throughput(model, wIdx[t])
			}
		}
		sched.Submit(rpc.JobSpec{JobID: i, TotalSteps: cfg.steps})
		// A job already resident from the replayed journal keeps its placement
		// and its shard's warm state (Admit is idempotent); only the lease
		// plane's progress restarts, because leases are in-memory.
		how := "->"
		if svc.HasJob(i) {
			how = "already on"
		}
		shard, err := svc.Admit(i, 1, tput)
		if err != nil {
			return fmt.Errorf("admit job %d: %w", i, err)
		}
		log.Printf("gavel-sched: job %d (%s) %s shard %d", i, model.Name(), how, shard)
	}

	// The daemon's side of the round protocol (rpc.RunRound owns the order).
	// Arrivals come through the submission plane on its own goroutines, and
	// with nothing resident a round still passes, so there is no Arrive or
	// Idle; rows are pushed once, at admission, so there is no Refresh.
	var rates []rpc.MeasuredSample
	plan := &rpc.RoundPlan{
		RoundSeconds:   cfg.round,
		RebalanceEvery: cfg.rebalance,
		ReallocEvery:   cfg.realloc,
		SnapshotEvery:  cfg.snapshot,
		Done:           sched.JobDone,
		Info: func(id int) policy.JobInfo {
			done, total := sched.Steps(id)
			return policy.JobInfo{
				Weight:         1,
				RemainingSteps: total - done,
				TotalSteps:     total,
				Elapsed:        time.Since(submitted).Seconds(),
				ArrivalSeq:     id,
			}
		},
		// Newly admitted submissions enter the lease plane here — the journal
		// already holds them, so a crash between admit and the seal replays to
		// the same placement.
		Admitted: func(ids []int) error {
			for _, si := range svc.Submissions() {
				for _, id := range ids {
					if si.JobID == id {
						lease(si, "admitted")
					}
				}
			}
			return nil
		},
		Migrated: func(migs []cluster.Migration, recovery bool) {
			how := "rebalanced"
			if recovery {
				how = "recovered"
				log.Printf("gavel-sched: shard daemon lost; recovered %d jobs onto survivors (warm from last snapshot)", len(migs))
			}
			for _, m := range migs {
				log.Printf("gavel-sched: %s job %d: shard %d -> %d (warm basis shipped)", how, m.Job, m.From, m.To)
			}
		},
	}
	if submission {
		// The workers' measured throughputs feed the trust review: what each
		// job of the shard's allocation last achieved, keyed back to the
		// cluster's accelerator-type indices (samples for the synthetic batch
		// are dropped by the coordinator: it reviews submissions only).
		plan.Progress = func(sh rpc.ShardRound) (bool, []rpc.PairObservation, []rpc.MeasuredSample) {
			rates = rates[:0]
			for _, id := range sh.IDs {
				measured := sched.Measured(id)
				for t, at := range spec.Types {
					if rate := measured[at.Name]; rate > 0 {
						rates = append(rates, rpc.MeasuredSample{JobID: id, Type: t, Rate: rate})
					}
				}
			}
			return false, nil, rates
		}
	}

	// drained counts consecutive rounds the submission plane was idle (no
	// queued or resident submissions); the coordinator exits once the
	// synthetic batch is complete and the plane has stayed idle -drain-rounds
	// rounds. loggedDecisions marks how much of the decision log has been
	// printed already.
	drained, loggedDecisions := 0, 0
	for {
		completed := 0
		for i := 0; i < cfg.jobs; i++ {
			if sched.JobDone(i) {
				completed++
			}
		}
		log.Printf("gavel-sched: round %d, %d/%d jobs complete", svc.Round(), completed, cfg.jobs)
		if completed == cfg.jobs && (!submission || drained >= cfg.drainRounds) {
			break
		}
		out, err := svc.RunRound(plan)
		if err != nil {
			return err
		}
		// The round is sealed — with -journal, fsynced: the point a killed
		// coordinator replays back to. Only now may its effects leave the
		// process: merge the shards' assignments into per-type lease queues.
		queues := map[string][]int{}
		for k, assigns := range out.Assigns {
			alloc, ids := svc.Alloc(k)
			if alloc == nil {
				continue
			}
			for _, a := range assigns {
				name := spec.Types[a.Type].Name
				for _, local := range alloc.Units[a.UnitIdx].Jobs {
					queues[name] = append(queues[name], ids[local])
				}
			}
		}
		leases.set(svc.Round(), queues)

		if submission {
			outstanding := 0
			for _, si := range svc.Submissions() {
				if si.State == rpc.SubmissionQueued || si.State == rpc.SubmissionAdmitted {
					outstanding++
				}
			}
			if outstanding == 0 {
				drained++
			} else {
				drained = 0
			}
			decisions := svc.Decisions()
			for _, d := range decisions[loggedDecisions:] {
				log.Printf("gavel-sched: admission decision round=%d action=%s tenant=%s key=%s detail=%q",
					d.Round, d.Action, d.Tenant, d.Key, d.Detail)
			}
			loggedDecisions = len(decisions)
			if cfg.decisionLog != "" {
				if err := writeDecisionLog(cfg.decisionLog, decisions); err != nil {
					return err
				}
			}
		}

		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Duration(cfg.round * float64(time.Second))):
		}
	}
	// The loop exits as the last job completes, before the next round's
	// retire would remove it: resolve the stragglers so the journal and the
	// tenant accounting are terminal.
	if err := svc.Retire(plan.Done); err != nil {
		return err
	}

	stats, err := svc.Stats()
	if err != nil {
		return err
	}
	for _, st := range stats {
		cold := st.Solve.Solves - st.Solve.WarmHits - st.Solve.RemapHits
		log.Printf("gavel-sched: shard %d: %d admitted, %d in, %d out, solves %d (%d warm, %d remapped, %d cold)",
			st.Index, st.Admitted, st.MigratedIn, st.MigratedOut,
			st.Solve.Solves, st.Solve.WarmHits, st.Solve.RemapHits, cold)
	}
	if submission {
		for _, ts := range svc.TenantStats() {
			log.Printf("gavel-sched: tenant %s: submitted=%d admitted=%d done=%d refused=%d shed=%d withdrawn=%d quarantined=%v clamp=%.3f",
				ts.Tenant, ts.Submitted, ts.Admitted, ts.Done, ts.Refused, ts.Shed, ts.Withdrawn, ts.Quarantined, ts.ClampRatio)
		}
		if cfg.decisionLog != "" {
			if err := writeDecisionLog(cfg.decisionLog, svc.Decisions()); err != nil {
				return err
			}
		}
	}
	// The injected-fault schedule: every fault the seeded chaos plane fired,
	// all masked by retry / degradation / recovery if the batch got here.
	for k, tr := range transports {
		counts := map[chaos.FaultKind]int{}
		for _, e := range tr.Schedule() {
			counts[e.Kind]++
		}
		log.Printf("gavel-sched: chaos schedule shard %d: %d faults injected %v", k, len(tr.Schedule()), counts)
	}
	log.Printf("gavel-sched: batch complete (%d migrations, %d rebalance passes, %d recoveries, %d degraded rounds)",
		svc.Migrations(), svc.Rebalances(), svc.Recoveries(), svc.DegradedRounds())
	return nil
}

// writeDecisionLog rewrites the admission decision log, one decision per
// line in the same key=value form the daemon logs — the artifact CI uploads
// to show what the shed ladder and quarantine validator actually did.
func writeDecisionLog(path string, decisions []rpc.AdmissionDecision) error {
	var b strings.Builder
	for _, d := range decisions {
		fmt.Fprintf(&b, "round=%d action=%s tenant=%s key=%s detail=%q\n",
			d.Round, d.Action, d.Tenant, d.Key, d.Detail)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
