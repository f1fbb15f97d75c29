package rpc

import (
	"fmt"
	"net"
	gorpc "net/rpc"
	"strings"
	"sync"

	"gavel/internal/cluster"
	"gavel/internal/obs"
	"gavel/internal/policy"
)

// ShardServer is one shard daemon's engine: a cluster.Shard (solve context,
// throughput cache, round mechanism over its device slice) behind the
// coordinator <-> shard protocol. A daemon starts bare — NewShardServer,
// then Serve — and receives its identity (device slice, policy) from the
// coordinator's Configure push. Every exported method below is a
// net/rpc handler; LocalShardClient calls the same methods directly, so the
// in-memory transport exercises the identical code path minus the sockets.
//
// Calls are serialized by a mutex: the control plane is round-synchronous by
// design (one coordinator, one call in flight per shard per phase), so
// serialization costs nothing and keeps the shard's state transitions
// byte-deterministic.
type ShardServer struct {
	handshake
	mu    sync.Mutex
	shard *cluster.Shard
	pol   policy.Policy
	cfg   ShardConfig

	// Round-keyed reply caches make Allocate and AssignRound idempotent
	// under at-least-once delivery: the protocol is round-synchronous, so
	// the round number is a natural request ID, and a retried or duplicated
	// call for the round already served returns the cached reply instead of
	// re-running the engine (which would skew solve and received-time
	// accounting).
	lastAllocRound  int64
	lastAlloc       AllocateReply
	lastAssignRound int64
	lastAssign      AssignRoundReply

	skipSet map[int]bool // AssignRound's skip mask, cleared and refilled per call

	// Telemetry (SetObs). Server-side spans are recorded only on work that
	// actually runs: a duplicated or retried Allocate/AssignRound hits the
	// reply cache above and records a cache-hit counter, never a second
	// span — that is what keeps span counts honest under at-least-once
	// delivery.
	tr     *obs.Tracer
	lpm    *obs.LPMetrics
	calls  *obs.CounterVec // gavel_shard_calls_total{method}
	cached *obs.CounterVec // gavel_shard_cached_replies_total{method}

	srv *tcpServer
}

// noRound is the reply caches' "nothing served yet" sentinel.
const noRound = int64(-1) << 62

// NewShardServer returns an unconfigured shard daemon engine.
func NewShardServer() *ShardServer { return &ShardServer{skipSet: map[int]bool{}} }

// UsePolicy hands an in-memory shard server the policy instance to run, in
// place of the one Configure would build from ShardConfig.Policy. It is how a
// coordinator in the same process (the simulator's NumShards path) runs
// policies the wire catalog cannot name — wrappers, hierarchical policies,
// test decorators. Nothing crosses the wire, so a remote daemon has no
// equivalent. The server's mutex serializes its calls, so even a
// policy.SerialPolicy is safe behind one server; handing one instance to
// several servers is the caller's to refuse (simulator.Config.Validate does).
// Call before Configure.
func (s *ShardServer) UsePolicy(p policy.Policy) {
	s.mu.Lock()
	s.pol = p
	s.mu.Unlock()
}

// SetObs attaches a telemetry plane: LP solve series feed the shard's solve
// context, shard-surface call counters and spans are recorded per method,
// and resident-jobs / open-connections gauges sample live state at scrape
// time. Safe to call before or after Configure/Serve; a nil plane is a
// no-op.
func (s *ShardServer) SetObs(p *obs.Plane) {
	if p == nil {
		return
	}
	reg := p.Registry()
	s.mu.Lock()
	s.tr = p.Tracer()
	s.lpm = obs.NewLPMetrics(reg)
	s.calls = reg.CounterVec("gavel_shard_calls_total", "Shard-surface calls served, by method.", "method")
	s.cached = reg.CounterVec("gavel_shard_cached_replies_total", "Duplicated round calls answered from the reply cache.", "method")
	if s.shard != nil && s.shard.Ctx != nil {
		s.shard.Ctx.Metrics = s.lpm
	}
	s.mu.Unlock()
	reg.GaugeFunc("gavel_shard_jobs_resident", "Jobs resident on this shard.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.shard == nil {
			return 0
		}
		return float64(s.shard.NumJobs())
	})
	reg.GaugeFunc("gavel_open_connections", "Open control-plane TCP connections.", func() float64 {
		s.mu.Lock()
		srv := s.srv
		s.mu.Unlock()
		if srv == nil {
			return 0
		}
		return float64(srv.numConns())
	})
}

// StatusText renders the shard's accounting as a /statusz section. Safe for
// concurrent scrapes (takes the server mutex).
func (s *ShardServer) StatusText() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shard == nil {
		return "unconfigured\n"
	}
	st := s.statusLocked(s.shard)
	var b strings.Builder
	fmt.Fprintf(&b, "shard %d: %d jobs resident, %d admitted, %d migrated in, %d out\n",
		st.Index, len(st.Jobs), st.Admitted, st.MigratedIn, st.MigratedOut)
	fmt.Fprintf(&b, "policy: %d calls, %s total\n", st.PolicyCalls, st.PolicyTime)
	fmt.Fprintf(&b, "solves: %d (%d warm, %d remapped), %d iterations, %d dual, %d presolve reductions, %d refactorizations\n",
		st.Solve.Solves, st.Solve.WarmHits, st.Solve.RemapHits,
		st.Solve.Iterations, st.Solve.DualIterations, st.Solve.PresolveReductions,
		st.Solve.Refactorizations)
	return b.String()
}

// solveIters reads the shard context's iteration counter for span deltas.
func (s *ShardServer) solveIters(sh *cluster.Shard) int64 {
	if sh.Ctx == nil {
		return 0
	}
	return int64(sh.Ctx.Stats.Iterations)
}

// shardServiceName is the net/rpc service name of the shard surface.
const shardServiceName = "GavelShard"

// Serve starts the daemon's TCP listener on addr ("host:port"), returning
// the bound address (useful with ":0").
func (s *ShardServer) Serve(addr string) (string, error) {
	srv, bound, err := serveTCP(addr, shardServiceName, s)
	s.mu.Lock()
	s.srv = srv
	s.mu.Unlock()
	return bound, err
}

// Close stops the listener and tears down every in-flight connection,
// joining their ServeConn goroutines.
func (s *ShardServer) Close() error {
	s.mu.Lock()
	srv := s.srv
	s.mu.Unlock()
	return srv.close()
}

// Ping is the liveness probe.
func (s *ShardServer) Ping(_ StatusArgs, _ *Ack) error { return nil }

// Configure installs the shard's identity. A repeat Configure with the same
// index is idempotent (a coordinator restart re-pushes config); changing the
// index of a live shard is an error.
func (s *ShardServer) Configure(cfg ShardConfig, _ *Ack) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shard != nil {
		if cfg.Index != s.cfg.Index {
			return Errorf(CodeAlreadyConfigured,
				"shard %d cannot become shard %d", s.cfg.Index, cfg.Index)
		}
		return nil
	}
	if len(cfg.WorkerInts) == 0 {
		return Errorf(CodeBadRequest, "empty worker slice")
	}
	for j, w := range cfg.WorkerInts {
		if w < 0 {
			return Errorf(CodeBadRequest, "type %d has %d workers", j, w)
		}
	}
	for j, per := range cfg.PerServer {
		if per < 1 {
			return Errorf(CodeBadRequest, "type %d has %d devices per server", j, per)
		}
	}
	pol := s.pol // set by UsePolicy on an in-memory server
	if pol == nil {
		var err error
		if pol, err = PolicyFromSpec(cfg.Policy); err != nil {
			return err
		}
	}
	var ctx *policy.SolveContext
	if !cfg.ColdSolves {
		ctx = policy.NewSolveContext()
		ctx.Metrics = s.lpm
	}
	s.shard = cluster.NewShard(cfg.Index, cfg.WorkerInts, cfg.PerServer, cfg.Prices, ctx)
	s.pol = pol
	s.cfg = cfg
	s.lastAllocRound, s.lastAssignRound = noRound, noRound
	return nil
}

// ready returns the shard under lock or a typed not-configured error.
func (s *ShardServer) ready() (*cluster.Shard, error) {
	if s.shard == nil {
		return nil, Errorf(CodeNotConfigured, "shard daemon has not been configured")
	}
	return s.shard, nil
}

// Install admits a job (arrival, migration target, or crash-recovery
// re-route). See InstallArgs for the seed-import gate. Installing an
// already-resident job is a no-op success: that is what makes Install safe
// to retry or duplicate when a reply is lost in transit.
func (s *ShardServer) Install(args InstallArgs, _ *Ack) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh, err := s.ready()
	if err != nil {
		return err
	}
	if sh.Has(args.JobID) {
		s.cached.With("Install").Inc()
		return nil
	}
	if err := s.validRows(args.Tput); err != nil {
		return err
	}
	for _, p := range args.Pairs {
		if err := s.validRows(p.Ta, p.Tb); err != nil {
			return err
		}
	}
	s.calls.With("Install").Inc()
	sp := s.tr.Begin(args.Trace, "shard.install").OnShard(s.cfg.Index).AttrInt("job", int64(args.JobID))
	defer sp.End(nil)
	sh.Add(args.JobID, args.ScaleFactor, args.Tput)
	if args.Migrated {
		sh.MigratedIn++
	} else {
		sh.Admitted++
	}
	for _, p := range args.Pairs {
		sh.SetPairIfAbsent(p.A, p.B, p.Ta, p.Tb)
	}
	if len(args.Seeds) > 0 && !sh.Ctx.HasSeeds() {
		sh.Ctx.ImportSeeds(args.Seeds)
	}
	return nil
}

// Remove drops a completed job.
func (s *ShardServer) Remove(args RemoveArgs, _ *Ack) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh, err := s.ready()
	if err != nil {
		return err
	}
	sh.Remove(args.JobID)
	return nil
}

// Extract removes a job for migration, returning its throughput row and the
// shard's warm seeds for the destination.
func (s *ShardServer) Extract(args ExtractArgs, reply *ExtractReply) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh, err := s.ready()
	if err != nil {
		return err
	}
	if !sh.Has(args.JobID) {
		return Errorf(CodeUnknownJob, "job %d is not resident on shard %d", args.JobID, s.cfg.Index)
	}
	s.calls.With("Extract").Inc()
	defer s.tr.Begin(args.Trace, "shard.extract").OnShard(s.cfg.Index).AttrInt("job", int64(args.JobID)).End(nil)
	reply.ScaleFactor = sh.Cache.ScaleFactor(args.JobID)
	reply.Tput = append([]float64(nil), sh.Cache.JobTput(args.JobID)...)
	reply.Seeds = sh.Ctx.ExportSeeds()
	sh.Remove(args.JobID)
	sh.MigratedOut++
	return nil
}

// Allocate recomputes the shard's allocation over its residents, using the
// coordinator-supplied per-job info, and returns the full allocation.
func (s *ShardServer) Allocate(args AllocateArgs, reply *AllocateReply) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh, err := s.ready()
	if err != nil {
		return err
	}
	if args.Round == s.lastAllocRound {
		s.cached.With("Allocate").Inc()
		*reply = s.lastAlloc
		return nil
	}
	s.calls.With("Allocate").Inc()
	sp := s.tr.Begin(args.Trace, "shard.allocate").OnShard(s.cfg.Index).AttrInt("jobs", int64(sh.NumJobs()))
	itersBefore := s.solveIters(sh)
	// Infos arrive in the mirror's admission order, which is the shard's own:
	// each lookup resumes where the last one hit.
	next := 0
	info := func(id int) policy.JobInfo {
		for i := range args.Infos {
			if ji := &args.Infos[(next+i)%len(args.Infos)]; ji.ID == id {
				next += i + 1
				return *ji
			}
		}
		return policy.JobInfo{}
	}
	if err := sh.Allocate(s.pol, s.cfg.PairGainThreshold, s.cfg.MaxPairsPerJob, info); err != nil {
		err = Errorf(CodeInternal, "allocate: %v", err)
		sp.End(err)
		return err
	}
	sp.AttrInt("iterations", s.solveIters(sh)-itersBefore).End(nil)
	reply.IDs = sh.AllocIDs // fresh per allocation and never written again
	reply.Units = sh.Alloc.Units
	reply.X = sh.Alloc.X
	s.lastAllocRound, s.lastAlloc = args.Round, *reply
	return nil
}

// AssignRound runs one mechanism round over the current allocation.
func (s *ShardServer) AssignRound(args AssignRoundArgs, reply *AssignRoundReply) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh, err := s.ready()
	if err != nil {
		return err
	}
	if sh.Alloc == nil && sh.NumJobs() > 0 {
		return Errorf(CodeNoAllocation, "AssignRound before any Allocate on shard %d", s.cfg.Index)
	}
	if args.Round == s.lastAssignRound {
		s.cached.With("AssignRound").Inc()
		*reply = s.lastAssign
		return nil
	}
	s.calls.With("AssignRound").Inc()
	sp := s.tr.Begin(args.Trace, "shard.assign").OnShard(s.cfg.Index).AttrInt("skip", int64(len(args.SkipJobs)))
	var skip func(id int) bool
	if len(args.SkipJobs) > 0 {
		clear(s.skipSet)
		for _, id := range args.SkipJobs {
			s.skipSet[id] = true
		}
		skip = func(id int) bool { return s.skipSet[id] }
	}
	assigns, err := sh.AssignRound(args.RoundSeconds, skip)
	if err != nil {
		err = Errorf(CodeInternal, "assign round: %v", err)
		sp.End(err)
		return err
	}
	sp.AttrInt("assigns", int64(len(assigns))).End(nil)
	reply.Assigns = assigns
	s.lastAssignRound, s.lastAssign = args.Round, *reply
	return nil
}

// Observe replays a round's measured pair throughputs into the cache.
func (s *ShardServer) Observe(args ObserveArgs, _ *Ack) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh, err := s.ready()
	if err != nil {
		return err
	}
	for _, o := range args.Obs {
		sh.Observe(o.A, o.B, o.Type, o.Ta, o.Tb)
	}
	return nil
}

// ObserveJob overwrites one resident job's isolated throughput row (the
// coordinator's measured/clamped feedback). Departed jobs are a no-op so a
// push racing a removal stays harmless.
func (s *ShardServer) ObserveJob(args ObserveJobArgs, _ *Ack) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh, err := s.ready()
	if err != nil {
		return err
	}
	if err := s.validRows(args.Tput); err != nil {
		return err
	}
	sh.ObserveJob(args.JobID, args.Tput)
	return nil
}

// validRows refuses throughput rows the shard's policy input cannot hold: one
// entry per accelerator type of the configured slice, each finite and
// non-negative. Stored unchecked, a short row fails every later Allocate and a
// NaN silently zeroes the job's allocation.
func (s *ShardServer) validRows(rows ...[]float64) error {
	for _, r := range rows {
		if err := ValidateTput(len(s.cfg.WorkerInts), r); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot returns the shard's recovery snapshot: warm seeds plus status.
func (s *ShardServer) Snapshot(_ SnapshotArgs, reply *SnapshotReply) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh, err := s.ready()
	if err != nil {
		return err
	}
	reply.Seeds = sh.Ctx.ExportSeeds()
	reply.Status = s.statusLocked(sh)
	return nil
}

// Status returns the shard's accounting.
func (s *ShardServer) Status(_ StatusArgs, reply *ShardStatus) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh, err := s.ready()
	if err != nil {
		return err
	}
	*reply = s.statusLocked(sh)
	return nil
}

func (s *ShardServer) statusLocked(sh *cluster.Shard) ShardStatus {
	st := ShardStatus{
		Index:       s.cfg.Index,
		Jobs:        sh.Jobs(),
		Admitted:    sh.Admitted,
		MigratedIn:  sh.MigratedIn,
		MigratedOut: sh.MigratedOut,
		PolicyCalls: sh.PolicyCalls,
		PolicyTime:  sh.PolicyTime,
	}
	if sh.Ctx != nil {
		st.Solve = sh.Ctx.Stats
	}
	return st
}

// handshake is the protocol Hello every served plane embeds.
type handshake struct{}

// Hello is the protocol handshake.
func (handshake) Hello(args HelloArgs, reply *HelloReply) error {
	if err := CheckVersion(args.Version); err != nil {
		return err
	}
	*reply = HelloReply{Version: ProtocolVersion}
	return nil
}

// tcpServer owns a listener and its per-connection goroutines so Close can
// actually stop everything (the seed's lease server leaked its ServeConn
// goroutines until process exit).
type tcpServer struct {
	ln net.Listener

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// serveTCP is every plane's Serve: it registers rcvr's handlers under name
// and serves them on a fresh listener at addr, returning the bound address.
func serveTCP(addr, name string, rcvr any) (*tcpServer, string, error) {
	srv := gorpc.NewServer()
	if err := srv.RegisterName(name, rcvr); err != nil {
		return nil, "", err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	t := &tcpServer{ln: ln, conns: map[net.Conn]struct{}{}}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			t.mu.Lock()
			if t.closed {
				t.mu.Unlock()
				conn.Close()
				return
			}
			t.conns[conn] = struct{}{}
			t.mu.Unlock()
			t.wg.Add(1)
			go func() {
				defer t.wg.Done()
				srv.ServeConn(conn)
				t.mu.Lock()
				delete(t.conns, conn)
				t.mu.Unlock()
				conn.Close()
			}()
		}
	}()
	return t, ln.Addr().String(), nil
}

// numConns reports the live connection count (the open-connections gauge).
func (t *tcpServer) numConns() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.conns)
}

// close stops the listener and joins every connection; a nil server (one
// that never served) closes as a no-op.
func (t *tcpServer) close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	err := t.ln.Close()
	for conn := range t.conns {
		conn.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
	return err
}
