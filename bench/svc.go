package main

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"gavel/internal/cluster"
	"gavel/internal/obs"
	"gavel/internal/policy"
	"gavel/internal/rpc"
	"gavel/internal/scheduler"
	"gavel/internal/workload"
)

// The service workloads drive rpc.Service through the benchmark's own round
// loop: 2 shard daemons on loopback TCP, the write-ahead journal, the
// submission plane. Arrivals are open-loop in simulated time (the tenants'
// Poisson streams do not care how fast the scheduler is); rounds are
// closed-loop in wall time (the next starts when the previous returns).

const (
	svcShards       = 2
	svcRoundSeconds = 360.0
	snapshotEvery   = 10
	rebalanceEvery  = 20
	crashCount      = 12
)

// Job lengths for the service workloads: the paper's log-uniform law cut at
// 10^3.5 minutes instead of 10^4. The last half decade is a tail of a few
// very long jobs that adds a thousand nearly idle rounds to every pass; cut,
// the same seconds buy twice the jobs and more than 200 resets per pass.
const (
	svcMinMinutes = 31.6
	svcMaxMinutes = 3162
)

// tenantMix is the four-tenant stream at full scale: two honest tenants in
// different SLO classes, one declaring 3x its true throughputs (the trust
// review must quarantine it), and one flooding: its whole backlog arrives
// at 10x the others' combined rate against a bounded ingress queue, so it is
// refused with CodeOverload and keeps resubmitting.
func tenantMix(blocks int) []workload.TenantSpec {
	n := blocks * 26
	return []workload.TenantSpec{
		{Name: "gold", NumJobs: n, LambdaPerHour: 3, SLOClass: 2},
		{Name: "bronze", NumJobs: n, LambdaPerHour: 3, SLOClass: 1},
		{Name: "liar", NumJobs: n, LambdaPerHour: 2, SLOClass: 1, DeclareFactor: 3},
		{Name: "flood", NumJobs: n, LambdaPerHour: 80, SLOClass: 0},
	}
}

// admission bounds the submission plane: 8 queued per tenant, one admission
// per tenant per round (burst 2), and the overload ladder sheds (lowest SLO
// class first) once more than 6 submissions have stayed queued for 3 rounds
// — so the flood is both refused at the edge and shed from the queue.
func admission() *rpc.AdmissionConfig {
	return &rpc.AdmissionConfig{MaxQueuePerTenant: 8, RatePerRound: 1, Burst: 2, ShedQueueDepth: 6}
}

// shardStats is what the rpc.ShardClient decorators record: everything
// below the decorator is transport + ShardServer + cluster.Shard.
type shardStats struct {
	mu        sync.Mutex
	traced    bool
	tr        *tracer
	t0        time.Time
	calls     int
	allocates int // Allocate calls: a round with one is a reset round
	byMethod  map[string][]float64
	intervals []interval
	fanout    map[string][]float64 // method/round -> per-shard durations
	wireBytes int64
}

// timedShard decorates one rpc.ShardClient. The inner client is swapped
// when the coordinator "crashes" and re-dials; the decorator and its
// accounting survive.
type timedShard struct {
	inner rpc.ShardClient
	idx   int
	st    *shardStats
	enc   *gob.Encoder // counts what the call's arguments and replies would cost on the wire
	wire  countWriter
}

type countWriter struct{ n int64 }

func (w *countWriter) Write(b []byte) (int, error) { w.n += int64(len(b)); return len(b), nil }

func newTimedShard(inner rpc.ShardClient, idx int, st *shardStats) *timedShard {
	t := &timedShard{inner: inner, idx: idx, st: st}
	t.enc = gob.NewEncoder(&t.wire)
	return t
}

// call counts one shard call and, in a traced pass, times and sizes it.
func (t *timedShard) call(method string, round int64, args, reply any, f func() error) error {
	st := t.st
	st.mu.Lock()
	st.calls++
	if method == "Allocate" {
		st.allocates++
	}
	st.mu.Unlock()
	if !st.traced {
		return f()
	}
	start := time.Now()
	err := f()
	end := time.Now()
	// One long-lived encoder per shard, like the connection's: type
	// descriptors are paid once, values every call.
	before := t.wire.n
	if args != nil {
		_ = t.enc.Encode(args) // sizing only; a type gob cannot encode is a bug the real transport reports
	}
	if reply != nil && err == nil {
		_ = t.enc.Encode(reply)
	}
	st.mu.Lock()
	st.byMethod[method] = append(st.byMethod[method], ms(end.Sub(start)))
	st.intervals = append(st.intervals, interval{start.Sub(st.t0).Nanoseconds(), end.Sub(st.t0).Nanoseconds()})
	if round >= 0 {
		key := fmt.Sprintf("%s/%d", method, round)
		st.fanout[key] = append(st.fanout[key], ms(end.Sub(start)))
	}
	st.wireBytes += t.wire.n - before
	st.mu.Unlock()
	st.tr.leaf("shard."+method, t.idx, start, end)
	return err
}

func (t *timedShard) Hello(a rpc.HelloArgs) (r rpc.HelloReply, err error) {
	err = t.call("Hello", -1, a, &r, func() error { r, err = t.inner.Hello(a); return err })
	return r, err
}
func (t *timedShard) Configure(c rpc.ShardConfig) error {
	return t.call("Configure", -1, c, nil, func() error { return t.inner.Configure(c) })
}
func (t *timedShard) Install(a rpc.InstallArgs) error {
	return t.call("Install", -1, a, nil, func() error { return t.inner.Install(a) })
}
func (t *timedShard) Remove(a rpc.RemoveArgs) error {
	return t.call("Remove", -1, a, nil, func() error { return t.inner.Remove(a) })
}
func (t *timedShard) Extract(a rpc.ExtractArgs) (r rpc.ExtractReply, err error) {
	err = t.call("Extract", -1, a, &r, func() error { r, err = t.inner.Extract(a); return err })
	return r, err
}
func (t *timedShard) Allocate(a rpc.AllocateArgs) (r rpc.AllocateReply, err error) {
	err = t.call("Allocate", a.Round, a, &r, func() error { r, err = t.inner.Allocate(a); return err })
	return r, err
}
func (t *timedShard) AssignRound(a rpc.AssignRoundArgs) (r rpc.AssignRoundReply, err error) {
	err = t.call("AssignRound", a.Round, a, &r, func() error { r, err = t.inner.AssignRound(a); return err })
	return r, err
}
func (t *timedShard) Observe(a rpc.ObserveArgs) error {
	return t.call("Observe", -1, a, nil, func() error { return t.inner.Observe(a) })
}
func (t *timedShard) ObserveJob(a rpc.ObserveJobArgs) error {
	return t.call("ObserveJob", -1, a, nil, func() error { return t.inner.ObserveJob(a) })
}
func (t *timedShard) Snapshot() (r rpc.SnapshotReply, err error) {
	err = t.call("Snapshot", -1, nil, &r, func() error { r, err = t.inner.Snapshot(); return err })
	return r, err
}
func (t *timedShard) Status() (r rpc.ShardStatus, err error) {
	err = t.call("Status", -1, nil, &r, func() error { r, err = t.inner.Status(); return err })
	return r, err
}
func (t *timedShard) Ping() error {
	return t.call("Ping", -1, nil, nil, func() error { return t.inner.Ping() })
}
func (t *timedShard) Close() error { return t.inner.Close() }

// svcJob is the driver's view of one trace job: ground-truth progress, the
// coordinator-assigned ID, and where it is in the submission lifecycle.
type svcJob struct {
	job         *workload.Job
	truth       []float64
	steps       float64
	wireID      int
	submitRound int64
	done        bool
	rejected    bool
	doneRound   int64
}

// svcPass is one run of the service round loop, with or without scheduled
// coordinator crashes.
type svcPass struct {
	cfg     passCfg
	crashes map[int64]bool
	tr      *tracer
	plane   *obs.Plane
	out     *passOut
	dig     *digest
	dir     string
	journal string

	servers []*rpc.ShardServer
	addrs   []string
	shards  []*timedShard
	st      *shardStats
	svcCfg  rpc.ServiceConfig
	svc     *rpc.Service

	trace    []workload.Job
	jobs     []*svcJob
	byWire   map[int]*svcJob
	budget   []int
	deferred []int
	pending  map[int]*svcJob // queued, keyed by wire ID

	round       int64
	now         float64
	next        int
	terminal    int // done + rejected
	submits     int
	refused     int
	shed        int
	recoveries  int
	assignments int
	goroutines  int

	calls        map[string][]float64 // per Service-call timings by name
	svcIntervals []interval
	queueWait    []float64
	replayMs     []float64
	replayBytes  []float64
}

func prepareStream(cfg passCfg) (pass, error) { return prepareSvc(cfg, 4, false) }
func prepareCrash(cfg passCfg) (pass, error)  { return prepareSvc(cfg, 2, true) }

// prepareSvc is the service workloads' set-up: generate the tenant stream,
// start the shard daemons on loopback, dial them, and build the coordinator
// (handshake, Configure, journal creation).
func prepareSvc(cfg passCfg, blocks int, crash bool) (pass, error) {
	p := &svcPass{
		cfg: cfg, out: &passOut{layer: map[string]float64{}}, dig: newDigest(),
		byWire: map[int]*svcJob{}, pending: map[int]*svcJob{}, calls: map[string][]float64{},
		crashes: map[int64]bool{},
	}
	specs := tenantMix(blocks)
	for i := range specs {
		specs[i].NumJobs = scaled(specs[i].NumJobs, cfg.scale, 3)
	}
	p.trace = tenantTrace(cfg.seed, specs, svcMinMinutes, svcMaxMinutes)
	for i := range p.trace {
		j := &p.trace[i]
		sj := &svcJob{job: j, truth: make([]float64, workload.NumTypes)}
		for t := range sj.truth {
			if workload.Fits(j.Config, t) {
				sj.truth[t] = workload.ScaledThroughput(j.Config, t, j.ScaleFactor, true)
			}
		}
		p.jobs = append(p.jobs, sj)
	}
	if crash {
		// Fixed crash rounds, spaced so the last lands well inside the run.
		step := int64(scaled(10, cfg.scale, 2))
		for k := int64(1); k <= crashCount; k++ {
			p.crashes[k*step] = true
		}
	}

	dir, err := os.MkdirTemp(cfg.dir, "svc-")
	if err != nil {
		return nil, err
	}
	p.dir = dir
	p.journal = filepath.Join(dir, "coordinator.wal")

	p.st = &shardStats{traced: cfg.traced, byMethod: map[string][]float64{}, fanout: map[string][]float64{}}
	if cfg.traced {
		p.tr = newTracer()
		p.st.tr = p.tr
		p.plane = &obs.Plane{Reg: obs.NewRegistry(), Tr: obs.NewTracer(1 << 18)}
	}
	spec := cluster.Simulated108()
	for _, t := range spec.Types {
		p.budget = append(p.budget, t.Count)
	}
	for k := 0; k < svcShards; k++ {
		srv := rpc.NewShardServer()
		srv.SetObs(p.plane)
		addr, err := srv.Serve("127.0.0.1:0")
		if err != nil {
			p.teardown()
			return nil, err
		}
		p.servers = append(p.servers, srv)
		p.addrs = append(p.addrs, addr)
	}
	if err := p.dial(); err != nil {
		p.teardown()
		return nil, err
	}
	p.svcCfg = rpc.ServiceConfig{
		Cluster:   spec,
		Policy:    rpc.PolicySpec{Name: "max_min_fairness"},
		LP:        lpOptions,
		Journal:   p.journal,
		Admission: admission(),
		Obs:       p.plane,
	}
	p.svc, err = rpc.NewService(p.svcCfg, p.clients())
	if err != nil {
		p.teardown()
		return nil, err
	}
	return p, nil
}

// dial (re)connects to every daemon with an explicit zero call policy: no
// deadline, no retries, nothing read from GAVEL_RPC_*.
func (p *svcPass) dial() error {
	for k, addr := range p.addrs {
		c, err := rpc.DialShardWith(addr, rpc.CallPolicy{})
		if err != nil {
			return err
		}
		if k < len(p.shards) {
			p.shards[k].inner = c
		} else {
			p.shards = append(p.shards, newTimedShard(c, k, p.st))
		}
	}
	return nil
}

func (p *svcPass) clients() []rpc.ShardClient {
	out := make([]rpc.ShardClient, len(p.shards))
	for k, s := range p.shards {
		out[k] = s
	}
	return out
}

// teardown releases the deployment: coordinator (clients + journal),
// daemons (listeners closed, connection goroutines joined), scratch files.
func (p *svcPass) teardown() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if p.svc != nil {
		keep(p.svc.Close())
		p.svc = nil
	} else {
		for _, s := range p.shards {
			s.inner.Close()
		}
	}
	for _, srv := range p.servers {
		keep(srv.Close())
	}
	for _, addr := range p.addrs {
		if c, err := rpc.DialShardWith(addr, rpc.CallPolicy{}); err == nil {
			c.Close()
			keep(fmt.Errorf("daemon %s still accepts connections after Close", addr))
		}
	}
	keep(os.RemoveAll(p.dir))
	return first
}

// timed runs one Service call (or one batch of them) as a span and a sample.
func (p *svcPass) timed(name string, f func() error) error {
	id := p.tr.begin(name)
	start := time.Now()
	err := f()
	end := time.Now()
	p.tr.end(id)
	p.calls[name] = append(p.calls[name], ms(end.Sub(start)))
	if p.tr != nil {
		p.svcIntervals = append(p.svcIntervals, interval{start.Sub(p.out.t0).Nanoseconds(), end.Sub(p.out.t0).Nanoseconds()})
	}
	return err
}

// submitKey is a job's idempotency key within its tenant.
func submitKey(j *workload.Job) string { return fmt.Sprintf("job-%d", j.ID) }

func (p *svcPass) submit(i int) error {
	sj := p.jobs[i]
	j := sj.job
	df := j.DeclareFactor
	if df <= 0 {
		df = 1
	}
	decl := make([]float64, len(sj.truth))
	for t, v := range sj.truth {
		decl[t] = v * df
	}
	start := time.Now()
	rep, err := p.svc.Submit(rpc.SubmitArgs{
		Tenant: j.Tenant, Key: submitKey(j), Name: j.Config.Name(),
		TotalSteps: j.TotalSteps, ScaleFactor: j.ScaleFactor, Tput: decl, SLOClass: j.SLOClass,
	})
	p.calls["submit"] = append(p.calls["submit"], us(time.Since(start)))
	p.submits++
	if err != nil {
		if rpc.CodeOf(err) == rpc.CodeOverload {
			// The expected answer to a flood: typed backpressure. The
			// client honors it and comes back next round.
			p.refused++
			p.deferred = append(p.deferred, i)
			return nil
		}
		return err
	}
	sj.wireID = rep.JobID
	sj.submitRound = p.round
	p.byWire[rep.JobID] = sj
	if rep.State == rpc.SubmissionQueued {
		p.pending[rep.JobID] = sj
	}
	return nil
}

func (p *svcPass) run() error {
	p.out.t0 = time.Now()
	p.st.t0 = p.out.t0
	p.tr.start(p.out.t0)
	for p.terminal < len(p.jobs) {
		p.tr.setRound(p.round + 1)
		evStart := time.Now()
		ev := p.tr.begin("svc.round")
		allocBefore := p.st.allocates

		// Retire finished jobs (only stale shards can hold one).
		err := p.timed("rpc.remove", func() error {
			for k := 0; k < svcShards; k++ {
				if !p.svc.IsDirty(k) {
					continue
				}
				for _, id := range p.svc.ShardJobs(k) {
					if p.byWire[id].done {
						start := time.Now()
						if err := p.svc.Remove(id); err != nil {
							return err
						}
						p.calls["remove"] = append(p.calls["remove"], us(time.Since(start)))
					}
				}
			}
			return nil
		})
		if err != nil {
			return err
		}

		// Tenants submit: refused work first, then this round's arrivals.
		err = p.timed("ingress.submit", func() error {
			retry := p.deferred
			p.deferred = nil
			for _, i := range retry {
				if err := p.submit(i); err != nil {
					return err
				}
			}
			for p.next < len(p.jobs) && p.jobs[p.next].job.Arrival <= p.now {
				if err := p.submit(p.next); err != nil {
					return err
				}
				p.next++
			}
			return nil
		})
		if err != nil {
			return err
		}
		if err := p.timed("ingress.expire_abandoned", func() error { return p.svc.ExpireAbandoned(p.round) }); err != nil {
			return err
		}
		var admitted []int
		err = p.timed("ingress.admit_pending", func() error {
			var err error
			admitted, err = p.svc.AdmitPending(p.round)
			return err
		})
		if err != nil {
			return err
		}
		for _, id := range admitted {
			delete(p.pending, id)
			p.queueWait = append(p.queueWait, float64(p.round-p.byWire[id].submitRound))
		}
		// Waiting tenants poll: their liveness heartbeat, and how they
		// learn a submission was shed.
		err = p.timed("ingress.poll", func() error {
			waiting := make([]int, 0, len(p.pending))
			for id := range p.pending {
				waiting = append(waiting, id)
			}
			sort.Ints(waiting)
			for _, id := range waiting {
				sj := p.pending[id]
				start := time.Now()
				rep, err := p.svc.Poll(rpc.PollArgs{Tenant: sj.job.Tenant, Key: submitKey(sj.job)})
				p.calls["poll"] = append(p.calls["poll"], us(time.Since(start)))
				if err != nil {
					return err
				}
				if rep.State == rpc.SubmissionRejected || rep.State == rpc.SubmissionWithdrawn {
					sj.rejected = true
					sj.doneRound = p.round
					delete(p.pending, id)
					p.terminal++
					p.shed++
				}
			}
			return nil
		})
		if err != nil {
			return err
		}

		if p.svc.NumJobs() == 0 {
			if len(p.pending) == 0 && len(p.deferred) == 0 {
				p.tr.end(ev)
				if p.next >= len(p.jobs) {
					break
				}
				// Idle cluster: jump to the next arrival's round boundary.
				for p.jobs[p.next].job.Arrival > p.now {
					p.now += svcRoundSeconds
				}
				continue
			}
			// Nothing resident but submissions wait on tokens: a round
			// passes so buckets refill.
			p.now += svcRoundSeconds
			p.round++
			if err := p.timed("rpc.end_round", func() error { return p.svc.EndRound(p.round) }); err != nil {
				return err
			}
			p.tr.end(ev)
			p.endEvent(evStart, false)
			continue
		}

		if p.round > 0 && p.round%rebalanceEvery == 0 {
			if err := p.timed("rpc.rebalance", func() error { _, err := p.svc.Rebalance(); return err }); err != nil {
				return err
			}
		}

		info := func(id int) policy.JobInfo {
			sj := p.byWire[id]
			return policy.JobInfo{
				Weight: 1, Priority: 1, RemainingSteps: sj.job.TotalSteps - sj.steps, TotalSteps: sj.job.TotalSteps,
				Elapsed: p.now - sj.job.Arrival, ArrivalSeq: sj.job.ID, Entity: -1,
			}
		}
		if err := p.timed("rpc.allocate_all", func() error { return p.svc.AllocateAll(p.round+1, info, false) }); err != nil {
			return err
		}
		if p.st.allocates > allocBefore {
			// Most rounds have no stale shard and AllocateAll returns at
			// once; its reported cost is over the rounds that fanned out.
			c := p.calls["rpc.allocate_all"]
			p.calls["allocate_all_fanout"] = append(p.calls["allocate_all_fanout"], c[len(c)-1])
		}
		var perShard [][]scheduler.Assignment
		skip := func(id int) bool { return p.byWire[id].done }
		err = p.timed("rpc.assign_round", func() error {
			var err error
			perShard, err = p.svc.AssignRound(p.round+1, svcRoundSeconds, skip)
			return err
		})
		if err != nil {
			return err
		}
		if err := p.timed("rpc.validate_round", func() error { return p.svc.ValidateRound(perShard) }); err != nil {
			p.out.fail("round %d: %v", p.round+1, err)
		}

		// Progress: the benchmark's stand-in for the workers. Ground-truth
		// throughput advances each scheduled job; its realized rate goes back
		// to the coordinator as the measured sample the trust review uses.
		type sample struct {
			id, typ int
			rate    float64
		}
		var meas []sample
		used := make([]int, len(p.budget))
		drv := p.tr.begin("driver.progress")
		for k := 0; k < svcShards; k++ {
			alloc, ids := p.svc.Alloc(k)
			if alloc == nil {
				continue
			}
			dirtied := false
			for _, a := range perShard[k] {
				for _, local := range alloc.Units[a.UnitIdx].Jobs {
					sj := p.byWire[ids[local]]
					used[a.Type] += sj.job.ScaleFactor
					tp := 0.0
					if workload.Fits(sj.job.Config, a.Type) {
						tp = workload.ScaledThroughput(sj.job.Config, a.Type, sj.job.ScaleFactor, a.Consolidated)
					}
					if tp > 0 {
						meas = append(meas, sample{sj.wireID, a.Type, tp})
					}
					sj.steps += tp * svcRoundSeconds
					if !sj.done && sj.steps >= sj.job.TotalSteps {
						sj.done = true
						sj.doneRound = p.round + 1
						p.terminal++
						dirtied = true
					}
				}
				p.dig.int(a.UnitIdx*4 + a.Type)
			}
			p.assignments += len(perShard[k])
			if dirtied {
				if err := p.svc.MarkDirty(k); err != nil {
					return err
				}
			}
		}
		p.tr.end(drv)
		if err := scheduler.WithinBudget(used, p.budget); err != nil {
			p.out.fail("round %d: %v", p.round+1, err)
		}
		err = p.timed("rpc.observe_measured", func() error {
			for _, m := range meas {
				if err := p.svc.ObserveMeasured(m.id, m.typ, m.rate); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		if n := len(meas); n > 0 {
			c := p.calls["rpc.observe_measured"]
			p.calls["observe_measured_each"] = append(p.calls["observe_measured_each"], c[len(c)-1]*1e3/float64(n))
		}

		p.now += svcRoundSeconds
		p.round++
		if p.round%snapshotEvery == 0 {
			if err := p.timed("rpc.snapshot_all", func() error { return p.svc.SnapshotAll() }); err != nil {
				return err
			}
		}
		if err := p.timed("rpc.end_round", func() error { return p.svc.EndRound(p.round) }); err != nil {
			return err
		}
		p.tr.end(ev)
		p.endEvent(evStart, p.st.allocates > allocBefore)

		if p.crashes[p.round] {
			if err := p.crashAndRecover(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *svcPass) endEvent(start time.Time, reset bool) {
	p.out.roundMs = append(p.out.roundMs, ms(time.Since(start)))
	p.out.reset = append(p.out.reset, reset)
	if g := runtime.NumGoroutine(); g > p.goroutines {
		p.goroutines = g
	}
}

// fingerprint renders the coordinator state a crash must not lose: every
// shard's mirrored allocation, the placement map, and the submission
// plane's journal-backed state. (Refusal counts and the decision log are
// live-only by design and are left out.)
func (p *svcPass) fingerprint() string {
	d := newDigest()
	for k := 0; k < p.svc.NumShards(); k++ {
		alloc, ids := p.svc.Alloc(k)
		d.str(fmt.Sprint(k, ids, p.svc.ShardJobs(k), p.svc.IsDirty(k)))
		if alloc != nil {
			d.str(fmt.Sprint(alloc.Units, alloc.X))
		}
	}
	d.str(fmt.Sprint(p.svc.Submissions()))
	for _, t := range p.svc.TenantStats() {
		t.Refused = 0
		d.str(fmt.Sprint(t))
	}
	return d.sum()
}

// crashAndRecover abandons the coordinator without Close — as a killed
// process would: its connections drop, its journal handle is never flushed
// again — and rebuilds it from the journal against the surviving daemons.
func (p *svcPass) crashAndRecover() error {
	p.tr.setRound(p.round)
	want := p.fingerprint()
	for _, s := range p.shards {
		s.inner.Close()
	}
	p.svc = nil
	if err := p.dial(); err != nil {
		return err
	}
	size := 0.0
	if fi, err := os.Stat(p.journal); err == nil {
		size = float64(fi.Size())
	}
	var resumed *rpc.Service
	err := p.timed("rpc.new_service", func() error {
		var err error
		resumed, err = rpc.NewService(p.svcCfg, p.clients())
		return err
	})
	if err != nil {
		return fmt.Errorf("recovery at round %d: %w", p.round, err)
	}
	p.svc = resumed
	p.recoveries++
	c := p.calls["rpc.new_service"]
	p.replayMs = append(p.replayMs, c[len(c)-1])
	p.replayBytes = append(p.replayBytes, size)
	switch {
	case !resumed.Resumed():
		p.out.fail("recovery at round %d: journal not detected", p.round)
	case resumed.Round() != p.round:
		p.out.fail("recovery at round %d: resumed at round %d", p.round, resumed.Round())
	case p.fingerprint() != want:
		p.out.fail("recovery at round %d: replayed state differs from the pre-crash state", p.round)
	}
	return nil
}

func (p *svcPass) finish() (*passOut, error) {
	out := p.out
	l := out.layer
	if p.svc != nil {
		p.collect(l)
	}
	journalBytes := 0.0
	if fi, err := os.Stat(p.journal); err == nil {
		journalBytes = float64(fi.Size())
	}
	err := p.teardown()

	for _, sj := range p.jobs {
		if !sj.done && !sj.rejected {
			out.fail("job %d (%s) stranded: neither finished nor rejected", sj.job.ID, sj.job.Tenant)
			break
		}
	}
	for _, sj := range p.jobs {
		p.dig.int(sj.job.ID)
		p.dig.int(int(sj.doneRound))
	}
	out.digest = p.dig.sum()
	out.ops = len(out.roundMs) + p.submits + p.recoveries

	resets := 0
	for _, r := range out.reset {
		if r {
			resets++
		}
	}
	l["simulator.rounds"] = float64(len(out.roundMs))
	l["simulator.resets"] = float64(resets)
	l["scheduler.assignments"] = float64(p.assignments)
	l["rpc.recoveries"] = float64(p.recoveries)
	l["shard.calls_total"] = float64(p.st.calls)
	l["ingress.refused_overload"] = float64(p.refused)
	l["ingress.shed"] = float64(p.shed)
	l["ingress.queue_wait_rounds_p50"] = median(p.queueWait)
	l["quality.unfinished"] = float64(len(p.jobs) - p.terminal)
	l["runtime.goroutines_max"] = float64(p.goroutines)
	l["journal.bytes_total"] = journalBytes
	if n := len(out.roundMs); n > 0 {
		l["journal.bytes_per_round"] = journalBytes / float64(n)
	}
	l["journal.replay_ms_mean"] = mean(p.replayMs)
	l["journal.replayed_bytes_total"] = sum(p.replayBytes)
	if t := sum(p.replayMs); t > 0 {
		l["journal.replay_mb_per_s"] = sum(p.replayBytes) / (1 << 20) / (t / 1e3)
	}

	if p.tr != nil {
		c, st := p.calls, p.st
		l["rpc.allocate_all_ms_p50"] = median(c["allocate_all_fanout"])
		l["rpc.assign_round_ms_p50"] = median(c["rpc.assign_round"])
		l["rpc.validate_round_us_p50"] = median(c["rpc.validate_round"]) * 1e3
		l["rpc.remove_us_p50"] = median(c["remove"])
		l["rpc.observe_measured_us_p50"] = median(c["observe_measured_each"])
		l["rpc.end_round_ms_p50"] = median(c["rpc.end_round"])
		l["rpc.snapshot_all_ms_p50"] = median(c["rpc.snapshot_all"])
		wait := float64(coverage(st.intervals)) / 1e6
		l["shard.wait_ms_sum"] = wait
		l["rpc.coord_self_ms_sum"] = float64(coverage(p.svcIntervals))/1e6 - wait
		l["shard.allocate_ms_p50"] = median(st.byMethod["Allocate"])
		l["shard.assign_round_ms_p50"] = median(st.byMethod["AssignRound"])
		l["shard.install_us_p50"] = median(st.byMethod["Install"]) * 1e3
		l["shard.snapshot_ms_p50"] = median(st.byMethod["Snapshot"])
		var skew []float64
		for _, d := range st.fanout {
			if len(d) > 1 {
				lo, hi := d[0], d[0]
				for _, v := range d[1:] {
					if v < lo {
						lo = v
					}
					if v > hi {
						hi = v
					}
				}
				skew = append(skew, hi-lo)
			}
		}
		l["shard.skew_ms_p50"] = median(skew)
		l["shard.wire_bytes_computed"] = float64(st.wireBytes)
		l["ingress.submit_us_p50"] = percentile(c["submit"], 50)
		l["ingress.submit_us_p95"] = percentile(c["submit"], 95)
		l["ingress.poll_us_p50"] = median(c["poll"])
		l["ingress.admit_pending_us_p50"] = median(c["ingress.admit_pending"]) * 1e3

		reg := p.plane.Registry()
		want := l["lp.solves"]
		lpCounts(reg, l)
		if l["lp.solves"] != want {
			out.fail("obs registry counted %v LP solves, shard status %v", l["lp.solves"], want)
		}
		l["journal.appends"] = float64(reg.Counter("gavel_journal_appends_total", "").Value())
		l["journal.fsyncs"] = float64(reg.Counter("gavel_journal_fsyncs_total", "").Value())
		l["journal.fsync_ms_sum"] = reg.Histogram("gavel_journal_fsync_seconds", "", obs.DurationBuckets).Sum() * 1e3
		out.spans = p.tr.spans
		out.program = p.plane.Tracer().Spans()
	}
	return out, err
}

// collect reads the coordinator's end-of-run accounting while it is still
// up: per-shard solve statistics, tenant counters, migrations.
func (p *svcPass) collect(l map[string]float64) {
	stats, err := p.svc.Stats()
	if err != nil {
		p.out.fail("final Stats: %v", err)
		return
	}
	calls := 0
	for _, st := range stats {
		calls += st.PolicyCalls
		lpStats(st.Solve, l)
	}
	lpDerived(l)
	l["policy.allocate_calls"] = float64(calls)
	l["rpc.migrations"] = float64(p.svc.Migrations())
	submitted, admitted, quarantined, done := 0, 0, 0, 0
	for _, t := range p.svc.TenantStats() {
		submitted += t.Submitted
		admitted += t.Admitted
		done += t.Done
		if t.Quarantined {
			quarantined++
		}
		p.dig.str(fmt.Sprint(t.Tenant, t.Submitted, t.Admitted, t.Shed, t.Done, t.Quarantined))
	}
	l["ingress.submitted"] = float64(submitted)
	l["ingress.admitted"] = float64(admitted)
	l["ingress.quarantined_tenants"] = float64(quarantined)
	// The loop ends as the last job completes, before the next round's
	// retire pass: the tenants' Done counts lag by the jobs still resident.
	if resident := p.svc.NumJobs(); done+resident+p.shed != len(p.jobs) {
		p.out.fail("tenant accounting: %d done + %d resident + %d shed != %d jobs", done, resident, p.shed, len(p.jobs))
	}
}
