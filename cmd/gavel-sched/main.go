// gavel-sched is the scheduler daemon for physical deployments. It serves
// the worker lease plane (internal/rpc) on a TCP port and runs in one of two
// modes:
//
//   - Coordinator (-shards addr,addr): the daemon drives remote gavel-shard
//     processes through the versioned coordinator <-> shard control plane —
//     round-synchronized allocation, warm-basis rebalance migrations,
//     periodic recovery snapshots — and leases the merged round assignments
//     to workers. This is the paper's scheduler architecture as separate
//     processes: policy on the shards, mechanism merged at the coordinator.
//   - Standalone (no -shards): the seed's single-process scheduler, leasing
//     by least attained service.
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
	"flag"
	"fmt"
	"log"
	"os"
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

func main() {
	var (
		listen = flag.String("listen", "127.0.0.1:8642", "address to serve the worker lease plane on")
		shards = flag.String("shards", "", "comma-separated gavel-shard addresses (empty = standalone mode)")
		jobs   = flag.Int("jobs", 4, "number of synthetic jobs to run")
		round  = flag.Float64("round", 10, "round duration in seconds")
		steps  = flag.Float64("steps", 2000, "training steps per job")

		policyName = flag.String("policy", "max_min_fairness", "allocation policy (coordinator mode)")
		gpus       = flag.String("gpus", "v100:4,p100:4,k80:8", "cluster spec: name:count[:perServer],...")
		rebalance  = flag.Int("rebalance-every", 10, "rounds between shard rebalances (0 = off)")
		realloc    = flag.Int("realloc-every", 4, "rounds between forced reallocations (0 = off)")
		snapshot   = flag.Int("snapshot-every", 1, "rounds between recovery snapshots")

		submitListen = flag.String("submit-listen", "", "address to serve the client submission plane on (coordinator mode; empty = off)")
		decisionLog  = flag.String("decision-log", "", "file rewritten each round with the admission decision log (shed/quarantine/abandon)")
		drainRounds  = flag.Int("drain-rounds", 3, "with -submit-listen, idle rounds with no resident or queued submissions before exiting")

		obsDefaults = obs.OptionsFromEnv()
		obsListen   = flag.String("obs-listen", obsDefaults.Listen, "address to serve /metrics, /statusz, /debug/trace, and pprof on (default GAVEL_OBS_LISTEN; empty = off)")
		obsTrace    = flag.String("obs-trace", obsDefaults.TracePath, "JSONL span-log path (default GAVEL_OBS_TRACE; empty = ring buffer only)")

		journal    = flag.String("journal", "", "coordinator write-ahead-log path (empty = not durable; an existing journal resumes the run)")
		chaosSpec  = flag.String("chaos", "", "fault-injection spec, e.g. seed=42,drop=0.05,dup=0.01,delay=0.1,maxdelay=20ms,partition=40+10,crash=200")
		rpcTimeout = flag.Duration("rpc-timeout", 0, "per-call shard RPC deadline (0 = GAVEL_RPC_TIMEOUT or default)")
		rpcRetries = flag.Int("rpc-retries", -1, "transient-failure retries per shard call (-1 = GAVEL_RPC_RETRIES or default)")
		rpcBackoff = flag.Duration("rpc-backoff", 0, "base retry backoff (0 = GAVEL_RPC_BACKOFF or default)")
	)
	flag.Parse()

	telemetry := obsDefaults
	telemetry.Listen = *obsListen
	telemetry.TracePath = *obsTrace

	if *shards == "" {
		if *submitListen != "" {
			log.Fatalf("gavel-sched: -submit-listen requires coordinator mode (-shards)")
		}
		runStandalone(*listen, *jobs, *round, *steps, telemetry)
		return
	}
	faults, err := chaos.ParseSpec(*chaosSpec)
	if err != nil {
		log.Fatalf("gavel-sched: %v", err)
	}
	pol := rpc.CallPolicyFromEnv()
	if *rpcTimeout > 0 {
		pol.Timeout = *rpcTimeout
	}
	if *rpcRetries >= 0 {
		pol.Retries = *rpcRetries
	}
	if *rpcBackoff > 0 {
		pol.Backoff = *rpcBackoff
	}
	cfg := coordinatorConfig{
		listen:       *listen,
		shardAddrs:   strings.Split(*shards, ","),
		jobs:         *jobs,
		round:        *round,
		steps:        *steps,
		policy:       *policyName,
		gpus:         *gpus,
		rebalance:    *rebalance,
		realloc:      *realloc,
		snapshot:     *snapshot,
		journal:      *journal,
		chaos:        faults,
		rpcPolicy:    pol,
		submitListen: *submitListen,
		decisionLog:  *decisionLog,
		drainRounds:  *drainRounds,
		telemetry:    telemetry,
	}
	if err := runCoordinator(cfg); err != nil {
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
// one queue of job IDs per accelerator type, refilled each round, popped per
// lease request. It implements rpc.LeaseSource (called under the scheduler's
// lock; it only takes its own).
type planSource struct {
	mu    sync.Mutex
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

func (p *planSource) set(plan map[string][]int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.queue = plan
}

type coordinatorConfig struct {
	listen     string
	shardAddrs []string
	jobs       int
	round      float64
	steps      float64
	policy     string
	gpus       string
	rebalance  int
	realloc    int
	snapshot   int
	journal    string
	chaos      chaos.Config
	rpcPolicy  rpc.CallPolicy

	submitListen string
	decisionLog  string
	drainRounds  int

	telemetry obs.Options
}

// runCoordinator drives remote shard daemons through the control plane and
// leases the merged assignments to workers, round by round, until the
// synthetic batch completes.
func runCoordinator(cfg coordinatorConfig) error {
	spec, err := parseCluster(cfg.gpus)
	if err != nil {
		return err
	}
	// Map spec types onto the model zoo's oracle indices for throughput hints.
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
	cfg.rpcPolicy.Obs = plane

	// Dial with the deadline only (it lives on the socket); retries and call
	// metrics belong to the fault-plane stack's outer layer.
	dial := rpc.CallPolicy{Timeout: cfg.rpcPolicy.Timeout}
	clients := make([]rpc.ShardClient, len(cfg.shardAddrs))
	var transports []*chaos.Transport
	for i, addr := range cfg.shardAddrs {
		c, err := rpc.DialShardWith(strings.TrimSpace(addr), dial)
		if err != nil {
			return fmt.Errorf("shard %s: %w", addr, err)
		}
		var tr *chaos.Transport
		if clients[i], tr = chaos.Stack(c, cfg.chaos, i, cfg.rpcPolicy); tr != nil {
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
	// The loop counts sealed rounds (0 on a fresh start, the journal's last
	// sealed round on a resume) and numbers the round it is building one past
	// that — the numbering the Service's trace IDs follow.
	startRound := int(svc.Round())
	if svc.Resumed() {
		log.Printf("gavel-sched: resumed from journal (round %d, %d jobs resident, %d recoveries so far)",
			svc.Round(), svc.NumJobs(), svc.Recoveries())
	}

	sched := rpc.NewScheduler(cfg.round)
	sched.SetObs(plane)
	plan := &planSource{}
	sched.SetLeaseSource(plan)
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
	log.Printf("gavel-sched: coordinator mode, protocol v%d, lease plane on %s, %d shards, policy %s",
		rpc.ProtocolVersion, addr, len(clients), cfg.policy)

	// jobSteps is every lease-plane job's training length — the synthetic
	// batch at cfg.steps plus each streamed submission at its declared length.
	jobSteps := map[int]float64{}
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
			if si.State != rpc.SubmissionAdmitted {
				continue
			}
			sched.Submit(rpc.JobSpec{
				JobID: si.JobID, Name: si.Name, TotalSteps: si.TotalSteps,
				ThroughputHint: hintFor(spec, si.Tput),
			})
			jobSteps[si.JobID] = si.TotalSteps
			log.Printf("gavel-sched: submission job %d (%s/%s) resumed on shard %d (journal)",
				si.JobID, si.Tenant, si.Key, si.Shard)
		}
	}

	// Submit the synthetic batch to both planes: leases need specs, shards
	// need throughput rows over the spec's accelerator types.
	zoo := workload.Zoo()
	submitted := time.Now()
	resident := map[int]bool{}
	for i := 0; i < cfg.jobs; i++ {
		model := zoo[(i*7)%len(zoo)]
		hint := map[string]float64{}
		tput := make([]float64, len(spec.Types))
		for t, at := range spec.Types {
			if workload.Fits(model, wIdx[t]) {
				hint[at.Name] = workload.Throughput(model, wIdx[t])
				tput[t] = hint[at.Name]
			}
		}
		sched.Submit(rpc.JobSpec{JobID: i, Name: model.Name(), TotalSteps: cfg.steps, ThroughputHint: hint})
		jobSteps[i] = cfg.steps
		if svc.HasJob(i) {
			// Already resident from the replayed journal; the lease plane's
			// progress restarts (leases are in-memory) but the placement and
			// the shard's warm state carry over.
			resident[i] = true
			log.Printf("gavel-sched: job %d (%s) already on shard %d (journal)", i, model.Name(), svc.JobShards()[i])
			continue
		}
		shard, err := svc.Admit(i, 1, tput)
		if err != nil {
			return fmt.Errorf("admit job %d: %w", i, err)
		}
		resident[i] = true
		log.Printf("gavel-sched: job %d (%s) -> shard %d", i, model.Name(), shard)
	}

	info := func(id int) policy.JobInfo {
		total := jobSteps[id]
		return policy.JobInfo{
			Weight:         1,
			RemainingSteps: total - sched.Steps(id),
			TotalSteps:     total,
			Elapsed:        time.Since(submitted).Seconds(),
			ArrivalSeq:     id,
		}
	}
	done := func(id int) bool { return sched.JobDone(id) }

	// drained counts consecutive rounds the submission plane was idle (no
	// queued or resident submissions); the coordinator exits once the
	// synthetic batch is complete and the plane has stayed idle -drain-rounds
	// rounds. loggedDecisions marks how much of the decision log has been
	// printed already.
	drained, loggedDecisions := 0, 0

	for r := startRound; ; r++ {
		// Retire completed jobs from the shards.
		completed := 0
		for id := range resident {
			if !sched.JobDone(id) {
				continue
			}
			if err := svc.Remove(id); err != nil {
				return err
			}
			delete(resident, id)
		}
		for i := 0; i < cfg.jobs; i++ {
			if sched.JobDone(i) {
				completed++
			}
		}
		log.Printf("gavel-sched: round %d, %d/%d jobs complete", r, completed, cfg.jobs)
		if completed == cfg.jobs && (!submission || drained >= cfg.drainRounds) {
			break
		}

		if submission {
			// Retire completed streamed jobs, sweep abandoned tenants, then
			// admit from the ingress queue under the round's quota budget.
			// Newly admitted submissions enter the lease plane here — the
			// journal already holds them, so a crash between admit and
			// EndRound replays to the same placement.
			for _, si := range svc.Submissions() {
				if si.State == rpc.SubmissionAdmitted && sched.JobDone(si.JobID) {
					if err := svc.Remove(si.JobID); err != nil {
						return err
					}
					log.Printf("gavel-sched: submission job %d (%s/%s) complete", si.JobID, si.Tenant, si.Key)
				}
			}
			if err := svc.ExpireAbandoned(int64(r)); err != nil {
				return err
			}
			admitted, err := svc.AdmitPending(int64(r))
			if err != nil {
				return err
			}
			if len(admitted) > 0 {
				byID := map[int]rpc.SubmissionInfo{}
				for _, si := range svc.Submissions() {
					byID[si.JobID] = si
				}
				for _, id := range admitted {
					si := byID[id]
					sched.Submit(rpc.JobSpec{
						JobID: id, Name: si.Name, TotalSteps: si.TotalSteps,
						ThroughputHint: hintFor(spec, si.Tput),
					})
					jobSteps[id] = si.TotalSteps
					log.Printf("gavel-sched: admitted submission job %d (%s/%s) -> shard %d",
						id, si.Tenant, si.Key, si.Shard)
				}
			}
		}

		if cfg.rebalance > 0 && r > 0 && r%cfg.rebalance == 0 {
			migs, err := svc.Rebalance()
			if err != nil {
				return err
			}
			for _, m := range migs {
				log.Printf("gavel-sched: rebalanced job %d: shard %d -> %d (warm basis shipped)", m.Job, m.From, m.To)
			}
		}
		if cfg.realloc > 0 && r > 0 && r%cfg.realloc == 0 {
			for k := 0; k < svc.NumShards(); k++ {
				if err := svc.MarkDirty(k); err != nil {
					return err
				}
			}
		}

		if err := svc.AllocateAll(int64(r)+1, info, false); err != nil {
			return err
		}
		perShard, err := svc.AssignRound(int64(r)+1, cfg.round, done)
		if err != nil {
			return err
		}
		// Merge the shards' assignments into per-type lease queues.
		queues := map[string][]int{}
		for k, assigns := range perShard {
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
		plan.set(queues)

		if cfg.snapshot > 0 && r%cfg.snapshot == 0 {
			if err := svc.SnapshotAll(); err != nil {
				return err
			}
		}
		if svc.AnyDown() {
			migs, err := svc.Recover()
			if err != nil {
				return err
			}
			log.Printf("gavel-sched: shard daemon lost; recovered %d jobs onto survivors (warm from last snapshot)", len(migs))
			for _, m := range migs {
				log.Printf("gavel-sched: recovered job %d: shard %d -> %d", m.Job, m.From, m.To)
			}
		}
		if submission {
			// Feed the workers' measured throughputs into the trust review:
			// what each streamed job actually achieved this round, keyed back
			// to the cluster's accelerator-type indices.
			outstanding := 0
			for _, si := range svc.Submissions() {
				switch si.State {
				case rpc.SubmissionQueued:
					outstanding++
					continue
				case rpc.SubmissionAdmitted:
					outstanding++
				default:
					continue
				}
				measured := sched.Measured(si.JobID)
				for t, at := range spec.Types {
					if rate, ok := measured[at.Name]; ok && rate > 0 {
						if err := svc.ObserveMeasured(si.JobID, t, rate); err != nil {
							return err
						}
					}
				}
			}
			if outstanding == 0 {
				drained++
			} else {
				drained = 0
			}
		}

		// Seal the round: with -journal this fsyncs the round's records, the
		// point a killed coordinator replays back to.
		if err := svc.EndRound(int64(r) + 1); err != nil {
			return err
		}

		if submission {
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

		time.Sleep(time.Duration(cfg.round * float64(time.Second)))
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

// hintFor maps a submission's throughput row (indexed by cluster type) into
// the lease plane's name-keyed hint.
func hintFor(spec cluster.Spec, tput []float64) map[string]float64 {
	hint := map[string]float64{}
	for t, at := range spec.Types {
		if t < len(tput) && tput[t] > 0 {
			hint[at.Name] = tput[t]
		}
	}
	return hint
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

// runStandalone is the single-process mode: the lease plane alone, leasing
// by least attained service.
func runStandalone(listen string, jobs int, round, steps float64, telemetry obs.Options) {
	sched := rpc.NewScheduler(round)
	plane, obsSrv, traceFile, err := telemetry.Build()
	if err != nil {
		log.Fatalf("gavel-sched: %v", err)
	}
	sched.SetObs(plane)
	if obsSrv != nil {
		obsSrv.AddStatus("leases", sched.StatusText)
		defer obsSrv.Close()
		log.Printf("gavel-sched: telemetry on %s", obsSrv.Addr())
	}
	if traceFile != nil {
		defer traceFile.Close()
	}
	addr, err := sched.Serve(listen)
	if err != nil {
		log.Fatalf("gavel-sched: %v", err)
	}
	defer sched.Close()
	log.Printf("gavel-sched: standalone mode, protocol v%d, serving on %s, %d jobs, %gs rounds",
		rpc.ProtocolVersion, addr, jobs, round)

	zoo := workload.Zoo()
	for i := 0; i < jobs; i++ {
		cfg := zoo[(i*7)%len(zoo)]
		hint := map[string]float64{}
		for t, name := range workload.TypeNames {
			if workload.Fits(cfg, t) {
				hint[name] = workload.Throughput(cfg, t)
			}
		}
		sched.Submit(rpc.JobSpec{
			JobID:          i,
			Name:           cfg.Name(),
			TotalSteps:     steps,
			ThroughputHint: hint,
		})
		log.Printf("gavel-sched: submitted job %d (%s, %.0f steps)", i, cfg.Name(), steps)
	}

	for {
		done := 0
		for i := 0; i < jobs; i++ {
			if sched.JobDone(i) {
				done++
			}
		}
		fmt.Printf("gavel-sched: %d/%d jobs complete\n", done, jobs)
		if done == jobs {
			log.Printf("gavel-sched: batch complete")
			return
		}
		time.Sleep(time.Duration(round) * time.Second / 2)
	}
}
