package rpc

// This file is the scheduler <-> worker lease plane of §6: workers register
// their accelerator type, lease micro-tasks round by round, and report
// measured throughputs. Protocol version 2 added the handshake and typed
// errors; an unversioned (v1) worker's Register decodes with Version 0 and
// is rejected with CodeVersionMismatch instead of garbling state.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"gavel/internal/obs"
)

// RegisterArgs announces a worker to the scheduler.
type RegisterArgs struct {
	// Version is the worker's protocol version; see CheckVersion.
	Version         int
	Addr            string // worker callback address (informational)
	AcceleratorType string // e.g. "v100"
	Server          string // physical server id, for consolidation
}

// RegisterReply returns the assigned worker ID, round length, and the
// scheduler's protocol version.
type RegisterReply struct {
	Version      int
	WorkerID     int
	RoundSeconds float64
}

// LeaseArgs asks for the next micro-task on a worker.
type LeaseArgs struct {
	WorkerID int
}

// Lease describes one micro-task: run the job for the round, checkpointing
// at the end unless renewed.
type Lease struct {
	JobIDs       []int // one job, or two when space sharing
	RoundSeconds float64
	// Renewed reports whether the same job keeps the worker next round
	// (the GavelIterator's lease-renewal check, §6).
	Renewed bool
	// Empty means no work this round.
	Empty bool
}

// ThroughputReport feeds a measured throughput back to the scheduler.
type ThroughputReport struct {
	WorkerID int
	JobID    int
	// StepsPerSecond measured over the micro-task.
	StepsPerSecond float64
}

// JobSpec is the unit of work submitted to the scheduler daemon.
type JobSpec struct {
	JobID      int
	TotalSteps float64
}

// LeaseSource is the lease plane's lease policy: the coordinator's merged
// round assignments, so workers run policy output. NextLease returns the job
// IDs the worker should run this round (empty = idle). Implementations are
// called under the scheduler's lock and must not call back into it.
type LeaseSource interface {
	NextLease(workerID int, accType, server string) []int
}

// Scheduler is the lease-plane server: it tracks workers and job progress
// and hands out the leases its LeaseSource plans, round by round. A lease
// that is neither renewed nor reported on within one round expires: the
// worker's lease-table entry is freed and gavel_lease_expiries_total counts
// it. Expiry is bookkeeping only — a silent worker's job is not stranded,
// because the next sealed round's plan queues it again.
type Scheduler struct {
	mu           sync.Mutex
	roundSeconds float64

	nextWorker int
	workers    map[int]*workerState

	jobs   map[int]*jobClientState
	source LeaseSource

	// clock is injectable for lease-expiry tests.
	clock func() time.Time

	tcp tcpServer

	// Telemetry (SetObs; nil instruments no-op when observability is off).
	leases   *obs.Counter // gavel_leases_granted_total
	empties  *obs.Counter // gavel_leases_empty_total
	expiries *obs.Counter // gavel_lease_expiries_total
	reports  *obs.Counter // gavel_step_reports_total
}

type workerState struct {
	id      int
	accType string
	server  string
	current int       // job id leased this round, -1 none
	leaseAt time.Time // when the current lease was granted
}

type jobClientState struct {
	spec     JobSpec
	steps    float64
	measured map[string]float64 // steps/sec per accelerator type
	done     bool
}

// NewScheduler creates a scheduler with the given round length that leases
// what src plans.
func NewScheduler(roundSeconds float64, src LeaseSource) *Scheduler {
	if roundSeconds <= 0 {
		roundSeconds = 360
	}
	return &Scheduler{
		roundSeconds: roundSeconds,
		workers:      map[int]*workerState{},
		jobs:         map[int]*jobClientState{},
		source:       src,
		clock:        time.Now,
	}
}

// SetObs registers the lease plane's instruments: lease grant/empty/expiry
// counters, throughput-report counter, and live worker/runnable-job gauges
// (sampled at scrape time under the scheduler's own lock).
func (s *Scheduler) SetObs(p *obs.Plane) {
	if s == nil || p == nil {
		return
	}
	reg := p.Registry()
	s.mu.Lock()
	s.leases = reg.Counter("gavel_leases_granted_total", "Micro-task leases granted to workers.")
	s.empties = reg.Counter("gavel_leases_empty_total", "Lease requests answered with no work.")
	s.expiries = reg.Counter("gavel_lease_expiries_total", "Leases expired because the holder went silent for a round.")
	s.reports = reg.Counter("gavel_step_reports_total", "Worker throughput reports folded into job progress.")
	s.mu.Unlock()
	reg.GaugeFunc("gavel_workers_registered", "Workers registered with the lease plane.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.workers))
	})
	reg.GaugeFunc("gavel_jobs_runnable", "Jobs submitted to the lease plane and not yet done.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		n := 0
		for _, j := range s.jobs {
			if !j.done {
				n++
			}
		}
		return float64(n)
	})
}

// StatusText renders the lease plane's worker and job tables for /statusz.
// Safe for concurrent use.
func (s *Scheduler) StatusText() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "workers %d  jobs %d\n", len(s.workers), len(s.jobs))
	ids := make([]int, 0, len(s.workers))
	for id := range s.workers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		w := s.workers[id]
		fmt.Fprintf(&b, "worker %d  type %s  server %s  leased job %d\n", w.id, w.accType, w.server, w.current)
	}
	jids := make([]int, 0, len(s.jobs))
	for id := range s.jobs {
		jids = append(jids, id)
	}
	sort.Ints(jids)
	for _, id := range jids {
		j := s.jobs[id]
		fmt.Fprintf(&b, "job %d  steps %.0f/%.0f  done %v\n", id, j.steps, j.spec.TotalSteps, j.done)
	}
	return b.String()
}

// leaseServiceName is the wire service name of the lease plane.
const leaseServiceName = "Gavel"

// Serve starts listening on addr ("host:port"); it returns the bound
// address (useful with ":0").
func (s *Scheduler) Serve(addr string) (string, error) {
	return s.tcp.serve(addr, leaseServiceName, (&schedulerRPC{s: s}).handlers())
}

// Close stops the listener and tears down every in-flight connection,
// joining their goroutines.
func (s *Scheduler) Close() error { return s.tcp.close() }

// Submit adds a job to the runnable set.
func (s *Scheduler) Submit(spec JobSpec) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[spec.JobID] = &jobClientState{spec: spec, measured: map[string]float64{}}
}

// JobDone reports whether the job has completed all steps.
func (s *Scheduler) JobDone(jobID int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[jobID]
	return ok && j.done
}

// Steps returns the job's accumulated and total training steps (both 0 for
// a job never submitted).
func (s *Scheduler) Steps(jobID int) (done, total float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[jobID]
	if !ok {
		return 0, 0
	}
	return j.steps, j.spec.TotalSteps
}

// Measured returns a copy of the job's measured steps/sec per accelerator
// type — what workers actually reported, as opposed to what the submitter
// declared. The coordinator feeds these into the submission plane's trust
// review between rounds.
func (s *Scheduler) Measured(jobID int) map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[jobID]
	if !ok || len(j.measured) == 0 {
		return nil
	}
	out := make(map[string]float64, len(j.measured))
	for k, v := range j.measured {
		out[k] = v
	}
	return out
}

// leaseTTL is how long a granted lease is honored without renewal: one round
// (the lease's own duration). A worker that neither renews nor reports
// within it is presumed dead and its lease-table entry is freed.
func (s *Scheduler) leaseTTL() time.Duration {
	return time.Duration(s.roundSeconds * float64(time.Second))
}

// expireLeases (callers hold mu) frees every lease older than the TTL.
func (s *Scheduler) expireLeases() {
	now := s.clock()
	for _, w := range s.workers {
		if w.current >= 0 && now.Sub(w.leaseAt) > s.leaseTTL() {
			w.current = -1
			s.expiries.Inc()
		}
	}
}

// schedulerRPC is the exported RPC surface.
type schedulerRPC struct {
	handshake
	s *Scheduler
}

// handlers is the lease plane's method table.
func (r *schedulerRPC) handlers() map[string]handler {
	return map[string]handler{
		"Hello":            handle(r.Hello),
		"RegisterWorker":   handle(r.RegisterWorker),
		"LeaseMicroTask":   handle(r.LeaseMicroTask),
		"ReportThroughput": handle(r.ReportThroughput),
	}
}

// RegisterWorker implements the worker-registration RPC.
func (r *schedulerRPC) RegisterWorker(args RegisterArgs, reply *RegisterReply) error {
	if err := CheckVersion(args.Version); err != nil {
		return err
	}
	s := r.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if args.AcceleratorType == "" {
		return Errorf(CodeBadRequest, "worker must declare an accelerator type")
	}
	id := s.nextWorker
	s.nextWorker++
	s.workers[id] = &workerState{id: id, accType: args.AcceleratorType, server: args.Server, current: -1}
	*reply = RegisterReply{Version: ProtocolVersion, WorkerID: id, RoundSeconds: s.roundSeconds}
	return nil
}

// LeaseMicroTask hands a worker the micro-task its LeaseSource plans for this
// round, after freeing the worker's previous lease and expiring any lease
// whose holder went silent.
func (r *schedulerRPC) LeaseMicroTask(args LeaseArgs, reply *Lease) error {
	s := r.s
	s.mu.Lock()
	defer s.mu.Unlock()
	w, ok := s.workers[args.WorkerID]
	if !ok {
		return Errorf(CodeUnknownWorker, "unknown worker %d", args.WorkerID)
	}
	prev := w.current
	w.current = -1
	s.expireLeases()

	ids := s.source.NextLease(w.id, w.accType, w.server)
	if len(ids) == 0 {
		s.empties.Inc()
		*reply = Lease{Empty: true, RoundSeconds: s.roundSeconds}
		return nil
	}
	s.leases.Inc()
	w.current = ids[0]
	w.leaseAt = s.clock()
	*reply = Lease{
		JobIDs:       append([]int(nil), ids...),
		RoundSeconds: s.roundSeconds,
		Renewed:      prev == ids[0],
	}
	return nil
}

// ReportThroughput records a measured throughput and job progress. A rate
// that is negative or not finite is refused and changes nothing: +Inf would
// complete the job at once, NaN would strand it, a negative rate would move
// it backwards.
func (r *schedulerRPC) ReportThroughput(rep ThroughputReport, _ *Ack) error {
	if err := ValidateTput(1, []float64{rep.StepsPerSecond}); err != nil {
		return err
	}
	s := r.s
	s.mu.Lock()
	defer s.mu.Unlock()
	w, ok := s.workers[rep.WorkerID]
	if !ok {
		return Errorf(CodeUnknownWorker, "unknown worker %d", rep.WorkerID)
	}
	j, ok := s.jobs[rep.JobID]
	if !ok {
		return Errorf(CodeUnknownJob, "unknown job %d", rep.JobID)
	}
	// A report is also a liveness signal: refresh the lease clock.
	if w.current == rep.JobID {
		w.leaseAt = s.clock()
	}
	s.reports.Inc()
	j.measured[w.accType] = rep.StepsPerSecond
	j.steps += rep.StepsPerSecond * s.roundSeconds
	if j.steps >= j.spec.TotalSteps {
		j.done = true
	}
	return nil
}

// Client is the worker-side handle. Every call is bounded by the
// environment's per-call deadline (GAVEL_RPC_TIMEOUT), so a hung scheduler
// surfaces as CodeTimeout instead of blocking the worker forever.
type Client struct {
	*conn
	WorkerID int
	Round    time.Duration
}

// Dial connects a worker to the scheduler, performs the version handshake,
// and registers it.
func Dial(addr string, reg RegisterArgs) (*Client, error) {
	c, err := dial(addr, leaseServiceName, CallPolicyFromEnv().Timeout, CodeUnavailable)
	if err != nil {
		return nil, err
	}
	if err := c.call("Hello", &HelloArgs{Version: ProtocolVersion, Role: "worker"}, &HelloReply{}); err != nil {
		c.Close()
		return nil, err
	}
	reg.Version = ProtocolVersion
	var reply RegisterReply
	if err := c.call("RegisterWorker", &reg, &reply); err != nil {
		c.Close()
		return nil, err
	}
	return &Client{conn: c, WorkerID: reply.WorkerID, Round: time.Duration(reply.RoundSeconds * float64(time.Second))}, nil
}

// Lease requests the next micro-task.
func (c *Client) Lease() (*Lease, error) {
	var l Lease
	if err := c.call("LeaseMicroTask", &LeaseArgs{WorkerID: c.WorkerID}, &l); err != nil {
		return nil, err
	}
	return &l, nil
}

// Report sends a measured throughput.
func (c *Client) Report(jobID int, stepsPerSecond float64) error {
	return c.call("ReportThroughput", &ThroughputReport{WorkerID: c.WorkerID, JobID: jobID, StepsPerSecond: stepsPerSecond}, &Ack{})
}
