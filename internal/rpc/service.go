package rpc

import (
	"sync"

	"gavel/internal/cluster"
	"gavel/internal/core"
	"gavel/internal/lp"
	"gavel/internal/obs"
	"gavel/internal/policy"
	"gavel/internal/scheduler"
)

// PairSource supplies the colocated throughput rows for a candidate
// space-sharing pair (ta for job a, tb for job b, indexed by accelerator
// type). The service queries it when a job lands on a shard — admission,
// migration, or recovery — to ship pair candidates alongside the job; shards
// apply them HasPair-gated, so the source may answer for already-cached pairs
// without harm. Nil disables space sharing.
type PairSource func(a, b int) (ta, tb []float64)

// ServiceConfig parameterizes the coordinator: the cluster to split across
// the shards, routing, the space-sharing pair knobs, and what every shard is
// configured with (policy by name).
type ServiceConfig struct {
	// Cluster is the global cluster; its per-type device counts are split
	// across the shard daemons with cluster.SplitWorkerCounts.
	Cluster cluster.Spec
	// Policy names the scheduling policy every daemon instantiates.
	Policy PolicySpec
	// LP is not read: the solver has nothing to select.
	//
	// Deprecated: inert. Pinned by bench/svc.go:311.
	LP lp.Options
	// ColdSolves disables the daemons' solve contexts (benchmark baseline).
	ColdSolves bool
	// Route selects arrival routing (default hash by job ID).
	Route cluster.RoutePolicy
	// PairGainThreshold is the minimum combined normalized throughput for a
	// space-sharing pair to become a candidate unit; MaxPairsPerJob caps
	// candidates per job (0 disables pair units). Pairs only ever form
	// within a shard — partitioning the job set partitions the pair set.
	PairGainThreshold float64
	MaxPairsPerJob    int
	// Pairs supplies colocated throughput rows for pair candidates; nil
	// disables pair shipping (no space sharing).
	Pairs PairSource
	// Journal, when non-empty, is the path of the coordinator's write-ahead
	// log. Every mirror mutation is journaled after the daemon acknowledges
	// it and fsynced at round boundaries (EndRound), so a restarted
	// coordinator replays to the exact pre-crash mirror — warm seeds included
	// — and resumes mid-run. An existing journal at the path triggers the
	// resume path (see Resumed).
	Journal string
	// StaleAfterRounds bounds graceful degradation: a shard whose Allocate
	// keeps failing transiently serves its last allocation for this many
	// consecutive rounds before being escalated to down (0 means the default
	// of 3; a shard with no allocation to serve escalates immediately).
	StaleAfterRounds int
	// Admission, when non-nil, enables the streaming submission plane
	// (Submit/Withdraw/Poll, per-tenant quotas, the overload ladder, and the
	// declared-vs-measured trust review; see service_submit.go). Nil keeps
	// the legacy driver-admitted batch behavior byte-identical.
	Admission *AdmissionConfig
	// Obs, when non-nil, registers the coordinator's telemetry: service
	// counters and gauges, journal and admission instruments, and the
	// per-round trace IDs stamped onto every control-plane call (see
	// serviceobs.go). Nil disables all of it at the cost of nil checks;
	// metrics never influence a scheduling decision, so enabling them cannot
	// perturb determinism.
	Obs *obs.Plane
}

// defaultStaleAfter is the StaleAfterRounds default: long enough to ride out
// a transient stall, short enough that a wedged daemon's jobs recover within
// a handful of rounds.
const defaultStaleAfter = 3

// shardMirror is the coordinator's local view of one shard daemon: enough
// membership, demand, and allocation state to make every routing, rebalance,
// and staleness decision without a remote read, plus the last recovery
// snapshot. The mirror is authoritative for control decisions; the daemon is
// authoritative for solves and round mechanics.
type shardMirror struct {
	index  int
	client ShardClient
	down   bool

	jobs   []int // resident job IDs in admission order
	jobPos map[int]int
	sf     map[int]int       // clamped scale factors
	tput   map[int][]float64 // isolated throughput rows (recovery re-install)
	load   int               // total device demand (sum of scale factors)
	dirty  bool              // membership changed since the last allocation

	alloc    *core.Allocation // last AllocateReply, rebuilt coordinator-side
	allocIDs []int
	// Argument scratch of the fan-out calls (AllocateAll's Infos, AssignRound's
	// SkipJobs, EndRound's clamp pushes): a client has consumed its arguments
	// by the time it returns.
	infos  []policy.JobInfo
	skip   []int
	pushes []ObserveJobArgs
	// Outcome of this shard's clamp-push chain: some push failed transiently,
	// and the error (shard down or a protocol failure) that ended it early.
	pushDegraded bool
	pushErr      error
	// RunRound's per-shard state: stale going into this round's allocation,
	// and rounds since the last one (rebuilt on replay from recAlloc,
	// recDegrade and recRound, so a resumed run keeps the realloc cadence).
	fresh      bool
	sinceAlloc int

	seeds  []policy.Seed // last snapshot's warm seeds
	status ShardStatus   // last known accounting (survives the daemon)

	// Degradation ladder: staleRounds counts consecutive rounds this shard's
	// allocation went stale because Allocate failed transiently (reset on the
	// next success); staleAllocs is the lifetime total, surfaced through
	// StaleAllocs for the round report.
	staleRounds int
	staleAllocs int
}

func (m *shardMirror) add(id, scaleFactor int, tput []float64) {
	if scaleFactor < 1 {
		scaleFactor = 1
	}
	m.jobPos[id] = len(m.jobs)
	m.jobs = append(m.jobs, id)
	m.sf[id] = scaleFactor
	m.tput[id] = append([]float64(nil), tput...)
	m.load += scaleFactor
	m.dirty = true
}

func (m *shardMirror) remove(id int) {
	pos, ok := m.jobPos[id]
	if !ok {
		return
	}
	m.load -= m.sf[id]
	m.jobs = append(m.jobs[:pos], m.jobs[pos+1:]...)
	delete(m.jobPos, id)
	delete(m.sf, id)
	delete(m.tput, id)
	for i := pos; i < len(m.jobs); i++ {
		m.jobPos[m.jobs[i]] = i
	}
	m.dirty = true
}

// unitScaleFactor is the max member scale factor of unit u in the mirrored
// allocation, used to validate merged rounds against the worker budgets.
func (m *shardMirror) unitScaleFactor(u int) int {
	sf := 1
	for _, local := range m.alloc.Units[u].Jobs {
		if v := m.sf[m.allocIDs[local]]; v > sf {
			sf = v
		}
	}
	return sf
}

// Service is the coordinator of the sharded scheduling service — the only
// one: it partitions jobs and devices across K shards, routes arrivals
// deterministically, periodically rebalances by migrating jobs (carrying warm
// LP seeds across, so a migration never forces a cold solve while any seed
// exists), fans allocation and round assignment out to every shard
// concurrently, and merges the per-shard rounds under the global per-type
// worker budget. Shards are driven through ShardClients, so the same code
// runs K in-memory shard servers (NewLocalShard: a direct call, no sockets,
// no serialization) and K shard daemons over TCP. It keeps a local mirror of
// each shard's membership and load so every control decision is made without
// a remote read, pulls periodic basis snapshots, and on daemon death
// re-routes the dead shard's jobs onto the survivors with the snapshot seeds
// so their next solves land remapped, not cold.
//
// A Service is not safe for concurrent use: all mutating entry points are
// single-threaded by design and the concurrency lives inside the fan-out
// calls, where shards touch only their own state — so a fixed call order
// yields a byte-identical outcome regardless of GOMAXPROCS.
type Service struct {
	cfg        ServiceConfig
	numTypes   int
	globalInts []int
	split      [][]int
	shards     []*shardMirror
	fan        []int // scratch: shard indices of the fan-out in progress, or Retire's job IDs
	shardOf    map[int]int
	migrations int
	rebalances int
	recoveries int

	// Durability plane (nil/zero when ServiceConfig.Journal is empty).
	j              *journal
	resumed        bool
	round          int64 // last round sealed by EndRound
	staleAfter     int
	roundDegraded  bool // some shard ran degraded since the last EndRound
	degradedRounds int  // lifetime count of degraded rounds

	// Submission plane (nil when ServiceConfig.Admission is nil). The
	// ingress has its own mutex: Submit/Withdraw/Poll are the one
	// concurrent-safe surface of the Service.
	ing *ingress

	// Telemetry plane (all-nil instruments when ServiceConfig.Obs is nil;
	// see serviceobs.go). curTrace is the one trace ID of the round currently
	// being built — obs.RoundTrace(round+1) — stamped on every control-plane
	// call, fan-outs and the sealing journal.commit included, until EndRound
	// advances it.
	tel      serviceObs
	curTrace string
}

// NewService validates the config, splits the cluster across the clients,
// and pushes each daemon its configuration (handshake included). The caller
// retains ownership of the clients; Close closes them.
func NewService(cfg ServiceConfig, clients []ShardClient) (*Service, error) {
	if len(clients) == 0 {
		return nil, Errorf(CodeBadRequest, "no shard clients")
	}
	if err := cfg.Cluster.Validate(); err != nil {
		return nil, err
	}
	numTypes := cfg.Cluster.NumTypes()
	counts := make([]int, numTypes)
	perServer := make([]int, numTypes)
	for j, t := range cfg.Cluster.Types {
		counts[j] = t.Count
		perServer[j] = t.PerServer
	}
	prices := cfg.Cluster.Prices()
	split := cluster.SplitWorkerCounts(counts, len(clients))

	s := &Service{
		cfg:        cfg,
		numTypes:   numTypes,
		globalInts: counts,
		split:      split,
		shardOf:    map[int]int{},
		staleAfter: cfg.StaleAfterRounds,
		curTrace:   obs.RoundTrace(1),
	}
	if s.staleAfter <= 0 {
		s.staleAfter = defaultStaleAfter
	}
	if cfg.Admission != nil {
		// Built before any journal replay: replayed submission records apply
		// straight into the ingress.
		s.ing = newIngress(*cfg.Admission, numTypes)
	}
	for k, client := range clients {
		if _, err := client.Hello(HelloArgs{Version: ProtocolVersion, Role: "coordinator"}); err != nil {
			return nil, err
		}
		err := client.Configure(ShardConfig{
			Index:             k,
			WorkerInts:        split[k],
			PerServer:         perServer,
			Prices:            prices,
			Policy:            cfg.Policy,
			ColdSolves:        cfg.ColdSolves,
			PairGainThreshold: cfg.PairGainThreshold,
			MaxPairsPerJob:    cfg.MaxPairsPerJob,
		})
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, &shardMirror{
			index:  k,
			client: client,
			jobPos: map[int]int{},
			sf:     map[int]int{},
			tput:   map[int][]float64{},
			status: ShardStatus{Index: k},
		})
	}
	if cfg.Journal != "" {
		start := cfg.Obs.Registry().Now()
		j, st, err := openJournal(cfg.Journal, s.replay)
		if err != nil {
			return nil, err
		}
		s.j = j
		if st.records > 0 {
			s.resumed = true
			s.tel.replayed, s.tel.replaySec = st, cfg.Obs.Registry().Since(start)
			s.curTrace = obs.RoundTrace(s.round + 1)
			if err := s.reconcile(); err != nil {
				j.f.Close()
				return nil, err
			}
		} else {
			err := j.append(&journalRecord{Kind: recConfig, Config: &journalConfig{
				Version:   JournalVersion,
				NumShards: len(clients),
				Policy:    cfg.Policy,
				Route:     int(cfg.Route),
			}})
			if err == nil {
				err = j.commit()
			}
			if err != nil {
				j.f.Close()
				return nil, err
			}
		}
	}
	s.setObs(cfg.Obs)
	s.syncObs()
	return s, nil
}

// replay applies the journal's i-th record to the mirror; over the whole log
// that rebuilds the exact pre-crash coordinator state without touching any
// daemon. It is the read-side twin of the journaling mutators below: every
// applyX helper is shared with the live path, so replayed and lived-through
// state cannot drift.
func (s *Service) replay(i int, rec *journalRecord) error {
	bad := func(k int) bool { return k < 0 || k >= len(s.shards) }
	switch rec.Kind {
	case recConfig:
		if i != 0 { // record 0 is the header readJournal has checked
			return Errorf(CodeBadRequest, "journal record %d: config record past the header", i)
		}
		if n := rec.Config.NumShards; n != len(s.shards) {
			return Errorf(CodeBadRequest, "journal was written for %d shards, service has %d", n, len(s.shards))
		}
	case recInstall:
		in := rec.Install
		if in == nil || bad(in.Shard) {
			return Errorf(CodeBadRequest, "journal record %d: malformed install", i)
		}
		m := s.shards[in.Shard]
		m.add(in.JobID, in.ScaleFactor, in.Tput)
		s.shardOf[in.JobID] = m.index
		if s.ing != nil {
			s.ing.noteAdmitted(in.JobID, m.index)
		}
		switch in.Reason {
		case reasonMigrate:
			s.migrations++
		case reasonRecover:
			s.recoveries++
		}
	case recRemove:
		rm := rec.Remove
		if rm == nil || bad(rm.Shard) {
			return Errorf(CodeBadRequest, "journal record %d: malformed remove", i)
		}
		s.applyRemove(rm.Shard, rm.JobID)
	case recDown:
		if bad(rec.Shard) {
			return Errorf(CodeBadRequest, "journal record %d: bad shard", i)
		}
		s.applyDown(s.shards[rec.Shard])
	case recDirty:
		if bad(rec.Shard) {
			return Errorf(CodeBadRequest, "journal record %d: bad shard", i)
		}
		s.shards[rec.Shard].dirty = true
	case recAlloc:
		al := rec.Alloc
		if al == nil || bad(al.Shard) {
			return Errorf(CodeBadRequest, "journal record %d: malformed alloc", i)
		}
		m := s.shards[al.Shard]
		m.alloc = &core.Allocation{Units: al.Units, X: al.X}
		m.allocIDs = al.IDs
		m.dirty = false
		m.staleRounds, m.sinceAlloc = 0, 0
	case recSnapshot:
		sn := rec.Snapshot
		if sn == nil || bad(sn.Shard) {
			return Errorf(CodeBadRequest, "journal record %d: malformed snapshot", i)
		}
		m := s.shards[sn.Shard]
		m.seeds = sn.Seeds
		m.status = sn.Status
	case recRebalance:
		s.rebalances++
	case recDegrade:
		if bad(rec.Shard) {
			return Errorf(CodeBadRequest, "journal record %d: bad shard", i)
		}
		m := s.shards[rec.Shard]
		m.staleRounds++
		m.staleAllocs++
		m.sinceAlloc = 0
	case recRound:
		s.round = rec.Round
		if len(s.shardOf) > 0 { // an empty round counts toward no cadence
			for _, m := range s.shards {
				m.sinceAlloc++
			}
		}
		if rec.Degraded {
			s.degradedRounds++
		}
		if s.ing != nil {
			// Re-run the round boundary's deterministic ingress work
			// (token refill, overload ladder, trust review) so counters,
			// quarantine flags, and mirror throughput clamps land exactly
			// as they did live. No daemon push during replay: reconcile
			// re-installs from the clamped mirror rows where needed.
			s.applyClamps(s.ing.endRound(rec.Round), false)
		}
	case recSubmit:
		if rec.Submit == nil || s.ing == nil {
			return Errorf(CodeBadRequest, "journal record %d: submission record without an admission config", i)
		}
		s.ing.mu.Lock()
		s.ing.applySubmitLocked(rec.Submit)
		s.ing.mu.Unlock()
	case recReject:
		if rec.Ref == nil || s.ing == nil {
			return Errorf(CodeBadRequest, "journal record %d: malformed reject", i)
		}
		s.ing.mu.Lock()
		s.ing.applyRejectLocked(rec.Ref)
		s.ing.mu.Unlock()
	case recWithdraw:
		if rec.Ref == nil || s.ing == nil {
			return Errorf(CodeBadRequest, "journal record %d: malformed withdraw", i)
		}
		s.ing.mu.Lock()
		s.ing.applyWithdrawLocked(rec.Ref)
		s.ing.mu.Unlock()
	case recTouch:
		if rec.Ref == nil || s.ing == nil {
			return Errorf(CodeBadRequest, "journal record %d: malformed touch", i)
		}
		s.ing.mu.Lock()
		s.ing.applyTouchLocked(rec.Ref)
		s.ing.mu.Unlock()
	case recMeasure:
		if rec.Measure == nil || s.ing == nil {
			return Errorf(CodeBadRequest, "journal record %d: malformed measure", i)
		}
		s.ing.mu.Lock()
		s.ing.applyMeasureLocked(rec.Measure)
		s.ing.mu.Unlock()
	default:
		return Errorf(CodeBadRequest, "journal record %d: unknown kind %d", i, rec.Kind)
	}
	return nil
}

// reconcile squares the replayed mirror with what each live daemon actually
// holds. Daemons that survived the coordinator crash already match (the
// journal is written after their acks); a daemon that restarted bare gets its
// mirror jobs re-installed with the last snapshot seeds (warm via remap, not
// cold), and any daemon-side job the mirror no longer lists is removed.
func (s *Service) reconcile() error {
	for _, m := range s.shards {
		if m.down {
			continue
		}
		st, err := m.client.Status()
		if err != nil {
			if err = s.downOrErr(m, err); err != nil {
				return err
			}
			continue
		}
		resident := make(map[int]bool, len(st.Jobs))
		for _, id := range st.Jobs {
			resident[id] = true
		}
		for _, id := range m.jobs {
			if resident[id] {
				continue
			}
			args := InstallArgs{
				JobID:       id,
				ScaleFactor: m.sf[id],
				Tput:        m.tput[id],
				Seeds:       m.seeds,
				Migrated:    true,
				Trace:       s.curTrace,
			}
			args.Pairs = s.pairRows(m, id, args.ScaleFactor)
			if err := m.client.Install(args); err != nil {
				if err = s.downOrErr(m, err); err != nil {
					return err
				}
				break
			}
			m.dirty = true // a bare daemon lost its allocation with its jobs
		}
		if m.down {
			continue
		}
		for id := range resident {
			if _, ok := m.jobPos[id]; ok {
				continue
			}
			if err := m.client.Remove(RemoveArgs{JobID: id, Trace: s.curTrace}); err != nil {
				if err = s.downOrErr(m, err); err != nil {
					return err
				}
				break
			}
		}
	}
	return nil
}

// record appends one record to the journal (no-op without one). Durability
// waits for the next EndRound commit; ordering is fixed at append time.
func (s *Service) record(rec *journalRecord) error {
	if s.j == nil {
		return nil
	}
	return s.j.append(rec)
}

// NumShards returns the partition count (live and dead).
func (s *Service) NumShards() int { return len(s.shards) }

// NumJobs returns the total resident job count across shards.
func (s *Service) NumJobs() int { return len(s.shardOf) }

// Migrations returns the total jobs moved between shards by rebalancing.
func (s *Service) Migrations() int { return s.migrations }

// Rebalances returns how many Rebalance calls actually moved jobs.
func (s *Service) Rebalances() int { return s.rebalances }

// Recoveries returns the total jobs re-routed off dead shards.
func (s *Service) Recoveries() int { return s.recoveries }

// Down reports whether shard k's daemon has been marked dead.
func (s *Service) Down(k int) bool { return s.shards[k].down }

// AnyDown reports whether any dead shard still holds jobs awaiting Recover.
func (s *Service) AnyDown() bool {
	for _, m := range s.shards {
		if m.down && len(m.jobs) > 0 {
			return true
		}
	}
	return false
}

// ShardJobs returns shard k's resident job IDs in admission order (copy).
func (s *Service) ShardJobs(k int) []int {
	return append([]int(nil), s.shards[k].jobs...)
}

// IsDirty reports whether shard k's membership changed since its last
// allocation.
func (s *Service) IsDirty(k int) bool { return s.shards[k].dirty }

// MarkDirty flags shard k stale (its membership or demand changed and the
// next AllocateAll must recompute it) and journals the transition.
func (s *Service) MarkDirty(k int) error {
	m := s.shards[k]
	if m.dirty {
		return nil
	}
	m.dirty = true
	return s.record(&journalRecord{Kind: recDirty, Shard: k})
}

// HasJob reports whether the job is resident on some shard — true for jobs
// already admitted before a coordinator restart, which a resuming driver must
// not re-admit.
func (s *Service) HasJob(id int) bool {
	_, ok := s.shardOf[id]
	return ok
}

// Resumed reports whether NewService replayed an existing journal (the
// coordinator restarted mid-run) rather than starting fresh.
func (s *Service) Resumed() bool { return s.resumed }

// Round returns the last round sealed by EndRound (0 before any). A resuming
// driver continues from Round()+1.
func (s *Service) Round() int64 { return s.round }

// DegradedRounds returns how many rounds proceeded with at least one shard
// degraded (stale allocation or missed round-plane call).
func (s *Service) DegradedRounds() int { return s.degradedRounds }

// StaleAllocs returns how many rounds shard k served a stale allocation
// because its Allocate failed transiently.
func (s *Service) StaleAllocs(k int) int { return s.shards[k].staleAllocs }

// EndRound seals round r: the round-boundary record is journaled and the
// whole round's records are fsynced in one batch. The round is the
// durability unit — after EndRound returns, a coordinator crash replays up
// to and including round r. Drivers number the round they are building
// Round()+1, which keeps r in step with the trace ID its calls carried.
func (s *Service) EndRound(r int64) error {
	if s.ing != nil {
		// Round-boundary ingress work first: token refill, overload ladder,
		// and the trust review. Clamp pushes can degrade the round, so they
		// run before the degraded flag is read below.
		if err := s.applyClamps(s.ing.endRound(r), true); err != nil {
			return err
		}
	}
	s.round = r
	degraded := s.roundDegraded
	s.roundDegraded = false
	if degraded {
		s.degradedRounds++
		s.tel.degraded.Inc()
	}
	s.tel.rounds.Inc()
	// The commit closes the sealed round's trace; calls landing between this
	// seal and the next belong to round r+1.
	sealed := s.curTrace
	s.curTrace = obs.RoundTrace(r + 1)
	defer s.syncObs()
	if s.j == nil {
		return nil
	}
	if err := s.j.append(&journalRecord{Kind: recRound, Round: r, Degraded: degraded}); err != nil {
		return err
	}
	sp := s.tel.tr.Begin(sealed, "journal.commit")
	err := s.j.commit()
	sp.End(err)
	return err
}

// Alloc returns shard k's mirrored allocation and the job IDs it was
// computed over (nil before the first allocation). Callers must not mutate.
func (s *Service) Alloc(k int) (*core.Allocation, []int) {
	return s.shards[k].alloc, s.shards[k].allocIDs
}

// applyDown is the mirror-side effect of marking a shard dead — shared by the
// live path (markDown) and journal replay.
func (s *Service) applyDown(m *shardMirror) {
	m.down = true
	m.alloc = nil
	m.allocIDs = nil
}

// applyRemove drops a job from shard k's mirror. The placement map entry is
// cleared only if it still points at k: during recovery the install on the
// new shard lands (and is journaled) before the removal from the dead one, so
// an unconditional delete would erase the new placement.
func (s *Service) applyRemove(k, id int) {
	s.shards[k].remove(id)
	if at, ok := s.shardOf[id]; ok && at == k {
		delete(s.shardOf, id)
		if s.ing != nil {
			// The job left its placement entirely (not a recovery's stale
			// source entry): resolve its submission. A migration's
			// remove-then-install transiently resolves and revives — the same
			// sequence live and on replay.
			s.ing.noteRemoved(id)
		}
	}
}

// markDown flags a shard dead and journals the transition.
func (s *Service) markDown(m *shardMirror) error {
	if m.down {
		return nil
	}
	s.applyDown(m)
	s.tel.tr.Begin(s.curTrace, "coord.shard_down").OnShard(m.index).End(nil)
	s.syncObs()
	return s.record(&journalRecord{Kind: recDown, Shard: m.index})
}

// downOrErr marks the shard dead and returns nil when err means the daemon is
// gone or unreachable — a dead connection (CodeShardDown) or a transient
// failure that outlived its retries on a call the round cannot proceed
// without (membership: Install, Remove, Status during reconcile). The caller
// continues without the shard and Recover picks its jobs up. Real protocol
// errors return as-is.
func (s *Service) downOrErr(m *shardMirror, err error) error {
	if err == nil {
		return nil
	}
	if code := CodeOf(err); code == CodeShardDown || IsTransient(code) {
		return s.markDown(m)
	}
	return err
}

// degradeOrErr handles failures of round-plane calls the coordinator can
// proceed without (AssignRound, Observe, Snapshot, Status): a transient
// failure degrades the round — the last known state stands and the round
// report flags it — while a dead connection marks the shard down. This is
// the slow-but-alive path: a daemon that misses one fan-out keeps its jobs.
func (s *Service) degradeOrErr(m *shardMirror, err error) error {
	if err == nil {
		return nil
	}
	code := CodeOf(err)
	if IsTransient(code) {
		s.roundDegraded = true
		return nil
	}
	if code == CodeShardDown {
		return s.markDown(m)
	}
	return err
}

// degradeAlloc records that shard m's Allocate failed transiently this round:
// the round proceeds on m's last allocation, the staleness is journaled and
// flagged, and after staleAfter consecutive stale rounds — or immediately,
// when there is no allocation to fall back on — the shard escalates to down
// so Recover re-routes its jobs.
func (s *Service) degradeAlloc(m *shardMirror) error {
	m.staleRounds++
	m.staleAllocs++
	s.roundDegraded = true
	s.tel.tr.Begin(s.curTrace, "coord.degrade_alloc").OnShard(m.index).
		AttrInt("stale_rounds", int64(m.staleRounds)).End(nil)
	if err := s.record(&journalRecord{Kind: recDegrade, Shard: m.index}); err != nil {
		return err
	}
	if m.alloc == nil || m.staleRounds >= s.staleAfter {
		return s.markDown(m)
	}
	return nil
}

// live returns the live shards in index order.
func (s *Service) live() []*shardMirror {
	out := make([]*shardMirror, 0, len(s.shards))
	for _, m := range s.shards {
		if !m.down {
			out = append(out, m)
		}
	}
	return out
}

// leastLoaded picks the lowest-load shard of ms, ties to the lowest index.
func leastLoaded(ms []*shardMirror) *shardMirror {
	best := ms[0]
	for _, m := range ms[1:] {
		if m.load < best.load {
			best = m
		}
	}
	return best
}

// route picks the destination shard for an arriving job per the configured
// RoutePolicy, falling back to least-loaded-live when hash routing lands on a
// dead daemon.
func (s *Service) route(id int) (*shardMirror, error) {
	live := s.live()
	if len(live) == 0 {
		return nil, Errorf(CodeShardDown, "no live shard daemons")
	}
	switch s.cfg.Route {
	case cluster.RouteLeastLoaded:
		return leastLoaded(live), nil
	default:
		k := id % len(s.shards)
		if k < 0 {
			k += len(s.shards)
		}
		if !s.shards[k].down {
			return s.shards[k], nil
		}
		return leastLoaded(live), nil
	}
}

// pairRows builds the pair candidates to ship with a job landing on m: one
// row pair per co-resident single-worker job, in admission order. The
// destination applies them HasPair-gated, so rows for already-cached pairs
// are harmless.
func (s *Service) pairRows(m *shardMirror, id, scaleFactor int) []PairRows {
	if s.cfg.Pairs == nil || scaleFactor > 1 {
		return nil
	}
	out := make([]PairRows, 0, len(m.jobs))
	for _, other := range m.jobs {
		if other == id || m.sf[other] > 1 {
			continue
		}
		ta, tb := s.cfg.Pairs(id, other)
		if ta == nil {
			continue
		}
		out = append(out, PairRows{A: id, B: other, Ta: ta, Tb: tb})
	}
	return out
}

// install lands a job on shard m — over the wire, in the mirror, and in the
// journal (after the daemon's ack, so the journal never claims more than the
// daemons hold; a crash between ack and append re-runs as an idempotent
// re-install during reconcile).
func (s *Service) install(m *shardMirror, args InstallArgs, reason installReason) error {
	args.Trace = s.curTrace
	args.Pairs = s.pairRows(m, args.JobID, args.ScaleFactor)
	if err := m.client.Install(args); err != nil {
		return err
	}
	m.add(args.JobID, args.ScaleFactor, args.Tput)
	s.shardOf[args.JobID] = m.index
	if s.ing != nil {
		s.ing.noteAdmitted(args.JobID, m.index)
	}
	return s.record(&journalRecord{Kind: recInstall, Install: &journalInstall{
		Shard:       m.index,
		JobID:       args.JobID,
		ScaleFactor: args.ScaleFactor,
		Tput:        args.Tput,
		Reason:      reason,
	}})
}

// place installs a job on the least-loaded live shard, walking down the
// survivor list as destinations fail — the shared landing path of recovery
// and of migrations whose destination dies mid-move. Each failed attempt
// marks one more shard down, so the walk terminates.
func (s *Service) place(id, scaleFactor int, tput []float64, seeds []policy.Seed, reason installReason) (*shardMirror, error) {
	for {
		live := s.live()
		if len(live) == 0 {
			return nil, Errorf(CodeShardDown, "no live shard daemons")
		}
		to := leastLoaded(live)
		err := s.install(to, InstallArgs{
			JobID:       id,
			ScaleFactor: scaleFactor,
			Tput:        tput,
			Seeds:       seeds,
			Migrated:    reason != reasonAdmit,
		}, reason)
		if err == nil {
			return to, nil
		}
		if err = s.downOrErr(to, err); err != nil {
			return nil, err
		}
	}
}

// Admit routes an arriving job to a shard and installs its isolated
// throughput row (pair candidates ride along), returning the destination
// shard index. If the routed daemon turns out dead, the job re-routes to the
// next choice.
func (s *Service) Admit(id, scaleFactor int, tput []float64) (int, error) {
	// Admission is idempotent: a job already resident (a resumed driver
	// re-submitting its batch) keeps its placement.
	if k, ok := s.shardOf[id]; ok {
		return k, nil
	}
	// Validate the declared row at the edge: a wrong-length, NaN, infinite,
	// or negative vector would corrupt the mirror and every LP downstream.
	if err := ValidateTput(s.numTypes, tput); err != nil {
		return -1, err
	}
	return s.admitJob(id, scaleFactor, tput)
}

// admitJob routes and installs one validated arrival — shared by Admit and
// the submission plane's AdmitPending.
func (s *Service) admitJob(id, scaleFactor int, tput []float64) (int, error) {
	for attempt := 0; attempt <= len(s.shards); attempt++ {
		m, err := s.route(id)
		if err != nil {
			return -1, err
		}
		err = s.install(m, InstallArgs{JobID: id, ScaleFactor: scaleFactor, Tput: tput}, reasonAdmit)
		if err == nil {
			return m.index, nil
		}
		if err = s.downOrErr(m, err); err != nil {
			return -1, err
		}
	}
	return -1, Errorf(CodeShardDown, "no live shard daemons")
}

// Remove drops a departed (completed) job from its shard. A dead daemon's
// mirror is still updated so Recover never resurrects finished jobs.
func (s *Service) Remove(id int) error {
	k, ok := s.shardOf[id]
	if !ok {
		return nil
	}
	m := s.shards[k]
	if !m.down {
		if err := s.downOrErr(m, m.client.Remove(RemoveArgs{JobID: id, Trace: s.curTrace})); err != nil {
			return err
		}
	}
	s.applyRemove(k, id)
	return s.record(&journalRecord{Kind: recRemove, Remove: &journalRemove{Shard: k, JobID: id}})
}

// Retire removes every finished job: shards ascending, admission order within.
func (s *Service) Retire(done func(id int) bool) error {
	s.fan = s.fan[:0] // Remove fans nothing out, so the scratch is free
	for _, m := range s.shards {
		for _, id := range m.jobs {
			if done(id) {
				s.fan = append(s.fan, id)
			}
		}
	}
	for _, id := range s.fan {
		if err := s.Remove(id); err != nil {
			return err
		}
	}
	return nil
}

// migrate moves one resident job between live shards, carrying the source's
// warm seeds: Extract pulls the row and seeds and books MigratedOut; Install
// with Migrated set books MigratedIn and imports the seeds only when the
// destination has none (the shard-side HasSeeds gate: a local basis covers
// more of the destination's columns than a shipped one could). The adopted
// basis remaps across the job-set change on the destination's next solve
// like any arrival, and the source's own basis remaps the departure — so a
// migration costs two remapped solves, never a cold one.
func (s *Service) migrate(id int, from, to *shardMirror) (err error) {
	sp := s.tel.tr.Begin(s.curTrace, "coord.migrate").AttrInt("job", int64(id)).
		AttrInt("from", int64(from.index)).AttrInt("to", int64(to.index))
	defer func() { sp.End(err) }()
	rep, err := from.client.Extract(ExtractArgs{JobID: id, Trace: s.curTrace})
	if err != nil {
		if IsTransient(CodeOf(err)) {
			// Extract is the one non-idempotent call on the surface: a lost
			// reply is ambiguous — the daemon may or may not have removed the
			// job. Reinstall from the mirror to resolve it: a no-op if the
			// extract never landed, a restore (warm via the shard's own seeds)
			// if it did. Either way the job stays put and the move is dropped.
			args := InstallArgs{
				JobID:       id,
				ScaleFactor: from.sf[id],
				Tput:        from.tput[id],
				Seeds:       from.seeds,
				Migrated:    true,
				Trace:       s.curTrace,
			}
			args.Pairs = s.pairRows(from, id, args.ScaleFactor)
			if rerr := from.client.Install(args); rerr != nil {
				if derr := s.downOrErr(from, rerr); derr != nil {
					return derr
				}
			}
		}
		return err
	}
	// Extract landed: the source daemon no longer holds the job, so the
	// mirror and journal reflect that before any install attempt (place may
	// otherwise pick the source as a fallback destination and double-add).
	if err := s.record(&journalRecord{Kind: recRemove, Remove: &journalRemove{Shard: from.index, JobID: id}}); err != nil {
		return err
	}
	s.applyRemove(from.index, id)
	err = s.install(to, InstallArgs{
		JobID:       id,
		ScaleFactor: rep.ScaleFactor,
		Tput:        rep.Tput,
		Seeds:       rep.Seeds,
		Migrated:    true,
	}, reasonMigrate)
	if err != nil {
		if err = s.downOrErr(to, err); err != nil {
			return err
		}
		// The destination died holding nothing (Install failed); the job is
		// already extracted, so land it on a surviving shard instead.
		if _, err = s.place(id, rep.ScaleFactor, rep.Tput, rep.Seeds, reasonMigrate); err != nil {
			return err
		}
	}
	s.migrations++
	s.tel.migrations.Inc()
	return nil
}

// Rebalance evens device demand across the live shards by migrating the most
// recently admitted movable job from the most loaded shard to the least
// loaded one until the gap stops shrinking. Ties always break to the lowest
// shard index and candidates are scanned in reverse admission order, so the
// migration set is a pure function of the mirror's state.
func (s *Service) Rebalance() ([]cluster.Migration, error) {
	live := s.live()
	if len(live) < 2 {
		return nil, nil
	}
	var migs []cluster.Migration
	for moves := 0; moves <= len(s.shardOf); moves++ {
		hi, lo := live[0], live[0]
		for _, m := range live[1:] {
			if m.load > hi.load {
				hi = m
			}
			if m.load < lo.load {
				lo = m
			}
		}
		gap := hi.load - lo.load
		if gap <= 1 {
			break
		}
		// Most recent admission whose demand strictly shrinks the gap:
		// moving demand d turns the gap into |gap - 2d|, an improvement
		// exactly when d < gap.
		pick := -1
		for i := len(hi.jobs) - 1; i >= 0; i-- {
			if hi.sf[hi.jobs[i]] < gap {
				pick = hi.jobs[i]
				break
			}
		}
		if pick < 0 {
			break
		}
		if err := s.migrate(pick, hi, lo); err != nil {
			// A daemon died or went unreachable mid-rebalance: stop moving,
			// let Recover sort the membership out, and surface real protocol
			// errors. (A transient Extract failure already reinstalled the
			// job at its source inside migrate.)
			if code := CodeOf(err); code == CodeShardDown || IsTransient(code) {
				break
			}
			return migs, err
		}
		migs = append(migs, cluster.Migration{Job: pick, From: hi.index, To: lo.index})
	}
	if len(migs) > 0 {
		s.rebalances++
		s.tel.rebalances.Inc()
		if err := s.record(&journalRecord{Kind: recRebalance}); err != nil {
			return migs, err
		}
	}
	return migs, nil
}

// fanOut calls fn(k) for every shard index in ks concurrently and returns when
// all have. A fan-out of one — every round of a one-shard run — is a plain
// call: no goroutine, no handoff to another thread and back. fn writes only
// shard k's state and slots indexed by k.
func fanOut(ks []int, fn func(k int)) {
	if len(ks) == 1 {
		fn(ks[0])
		return
	}
	var wg sync.WaitGroup
	for _, k := range ks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(k)
		}()
	}
	wg.Wait()
}

// AllocateAll recomputes every stale live shard's allocation concurrently
// (stale: membership changed since the last allocation, or none exists; force
// recomputes clean shards too). Results land in the mirror; a daemon death
// marks the shard down instead of failing the call. The returned error is
// the lowest-index protocol failure. round keys the shards' reply caches and
// must be unique per round; the trace ID is the Service's own.
func (s *Service) AllocateAll(round int64, info func(id int) policy.JobInfo, force bool) error {
	s.fan = s.fan[:0]
	for k, m := range s.shards {
		if m.down || (!force && !m.dirty && m.alloc != nil) {
			continue
		}
		m.infos = m.infos[:0]
		for _, id := range m.jobs {
			ji := info(id)
			ji.ID = id
			m.infos = append(m.infos, ji)
		}
		s.fan = append(s.fan, k)
	}
	if len(s.fan) == 0 {
		return nil // most rounds: nothing is stale
	}
	type slot struct {
		rep AllocateReply
		err error
	}
	slots := make([]slot, len(s.shards))
	fanOut(s.fan, func(k int) {
		m := s.shards[k]
		sp := s.tel.tr.Begin(s.curTrace, "coord.allocate").OnShard(k).
			AttrInt("jobs", int64(len(m.infos)))
		slots[k].rep, slots[k].err = m.client.Allocate(AllocateArgs{Round: round, Infos: m.infos, Trace: s.curTrace})
		sp.End(slots[k].err)
	})
	for _, k := range s.fan {
		m := s.shards[k]
		if err := slots[k].err; err != nil {
			switch code := CodeOf(err); {
			case code == CodeShardDown:
				if err := s.markDown(m); err != nil {
					return err
				}
			case IsTransient(code):
				// Slow but alive: the round proceeds on this shard's last
				// allocation, flagged stale; repeated staleness escalates to
				// down inside degradeAlloc.
				if err := s.degradeAlloc(m); err != nil {
					return err
				}
			default:
				return err
			}
			continue
		}
		m.alloc = &core.Allocation{Units: slots[k].rep.Units, X: slots[k].rep.X}
		m.allocIDs = slots[k].rep.IDs
		m.dirty = false
		m.staleRounds = 0
		err := s.record(&journalRecord{Kind: recAlloc, Alloc: &journalAlloc{
			Shard: k,
			IDs:   slots[k].rep.IDs,
			Units: slots[k].rep.Units,
			X:     slots[k].rep.X,
		}})
		if err != nil {
			return err
		}
	}
	return nil
}

// AssignRound runs one mechanism round on every live shard concurrently,
// validates the merged result against the per-shard and global worker
// budgets, and returns the per-shard assignments indexed by shard. skip
// masks jobs that must not run (may be nil); a dead daemon contributes an
// empty round.
func (s *Service) AssignRound(round int64, roundSeconds float64, skip func(id int) bool) ([][]scheduler.Assignment, error) {
	perShard := make([][]scheduler.Assignment, len(s.shards))
	errs := make([]error, len(s.shards))
	s.fan = s.fan[:0]
	for k, m := range s.shards {
		if m.down || m.alloc == nil || len(m.alloc.Units) == 0 {
			continue
		}
		m.skip = m.skip[:0]
		if skip != nil {
			for _, id := range m.allocIDs {
				if skip(id) {
					m.skip = append(m.skip, id)
				}
			}
		}
		s.fan = append(s.fan, k)
	}
	fanOut(s.fan, func(k int) {
		m := s.shards[k]
		sp := s.tel.tr.Begin(s.curTrace, "coord.assign").OnShard(k).
			AttrInt("skip", int64(len(m.skip)))
		rep, err := m.client.AssignRound(AssignRoundArgs{Round: round, RoundSeconds: roundSeconds, SkipJobs: m.skip, Trace: s.curTrace})
		sp.End(err)
		perShard[k], errs[k] = rep.Assigns, err
	})
	for k, m := range s.shards {
		if err := errs[k]; err != nil {
			perShard[k] = nil
			if err = s.degradeOrErr(m, err); err != nil {
				return nil, err
			}
		}
	}
	if err := s.ValidateRound(perShard); err != nil {
		return nil, err
	}
	return perShard, nil
}

// ValidateRound verifies one global round's budget invariants on the mirror:
// every shard within its own worker slice, and the union within the global
// per-type budget. The shards' slices partition the cluster, so a violation
// is an invariant breach.
func (s *Service) ValidateRound(perShard [][]scheduler.Assignment) error {
	if len(perShard) != len(s.shards) {
		return Errorf(CodeInternal, "%d assignment sets for %d shards", len(perShard), len(s.shards))
	}
	total := make([]int, s.numTypes)
	for k, assigns := range perShard {
		if len(assigns) == 0 {
			continue
		}
		m := s.shards[k]
		used := scheduler.UsedWorkers(assigns, m.unitScaleFactor, s.numTypes)
		if err := scheduler.WithinBudget(used, s.split[k]); err != nil {
			return Errorf(CodeInternal, "shard %d: %v", k, err)
		}
		for j := range used {
			total[j] += used[j]
		}
	}
	if err := scheduler.WithinBudget(total, s.globalInts); err != nil {
		return Errorf(CodeInternal, "merged round: %v", err)
	}
	return nil
}

// Observe flushes one round's measured pair throughputs to shard k, in
// observation order.
func (s *Service) Observe(k int, obs []PairObservation) error {
	m := s.shards[k]
	if m.down || len(obs) == 0 {
		return nil
	}
	return s.degradeOrErr(m, m.client.Observe(ObserveArgs{Obs: obs, Trace: s.curTrace}))
}

// ObserveJob overwrites a resident job's isolated throughput row on its shard,
// for the next allocation to use — how a driver whose throughput estimates
// move between resets keeps the shard's cache current. The mirror keeps the
// row the job was admitted with (what a recovery re-installs), so nothing is
// journaled: such a driver re-pushes its rows to every stale shard anyway.
func (s *Service) ObserveJob(id int, tput []float64) error {
	if err := ValidateTput(s.numTypes, tput); err != nil {
		return err
	}
	k, ok := s.shardOf[id]
	if !ok || s.shards[k].down {
		return nil
	}
	m := s.shards[k]
	return s.degradeOrErr(m, m.client.ObserveJob(ObserveJobArgs{JobID: id, Tput: tput, Trace: s.curTrace}))
}

// SnapshotAll pulls every live shard's recovery snapshot — warm seeds plus
// accounting — into the mirror. This is the coordinator's periodic
// checkpoint: if a daemon later dies, its jobs re-route with these seeds and
// its last status stays mergeable.
func (s *Service) SnapshotAll() error {
	for _, m := range s.shards {
		if m.down {
			continue
		}
		rep, err := m.client.Snapshot()
		if err != nil {
			if err = s.degradeOrErr(m, err); err != nil {
				return err
			}
			continue
		}
		m.seeds = rep.Seeds
		m.status = rep.Status
		// PolicyTime is a wall clock, which no replay can reproduce: the
		// journal carries it zeroed (gob omits a zero field), the live mirror
		// keeps the real value.
		journaled := rep.Status
		journaled.PolicyTime = 0
		err = s.record(&journalRecord{Kind: recSnapshot, Snapshot: &journalSnapshot{
			Shard:  m.index,
			Seeds:  rep.Seeds,
			Status: journaled,
		}})
		if err != nil {
			return err
		}
	}
	return nil
}

// Recover re-routes every job resident on dead shards onto the live ones, in
// the dead shard's admission order, least-loaded destination first. Each job
// re-installs from the mirror's throughput row with the dead shard's last
// snapshot seeds, so the destination — or a fresh replacement daemon — warm
// starts via basis remap instead of solving cold; destinations that already
// hold seeds keep their own (the better cover) and still solve the enlarged
// job set remapped. The dead shard's last snapshot status remains mergeable
// through Stats. Returns the moves for the caller's placement bookkeeping.
// The pass runs to a fixpoint: any number of shards may be dead on entry —
// concurrent loss in one round — and destinations may die mid-recovery; the
// outer loop re-scans until no dead shard holds jobs, so every job either
// lands on a survivor or the pass reports that none remain. Each job's
// install on its new shard is journaled before the dead shard's mirror drops
// it, so a coordinator crash mid-recovery replays to a state where the job is
// placed exactly once.
func (s *Service) Recover() ([]cluster.Migration, error) {
	var migs []cluster.Migration
	for {
		var dead *shardMirror
		for _, m := range s.shards {
			if m.down && len(m.jobs) > 0 {
				dead = m
				break
			}
		}
		if dead == nil {
			return migs, nil
		}
		for _, id := range append([]int(nil), dead.jobs...) {
			to, err := s.place(id, dead.sf[id], dead.tput[id], dead.seeds, reasonRecover)
			if err != nil {
				return migs, err
			}
			if err := s.record(&journalRecord{Kind: recRemove, Remove: &journalRemove{Shard: dead.index, JobID: id}}); err != nil {
				return migs, err
			}
			s.applyRemove(dead.index, id)
			s.recoveries++
			s.tel.recoveries.Inc()
			migs = append(migs, cluster.Migration{Job: id, From: dead.index, To: to.index})
		}
	}
}

// Stats returns per-shard accounting in shard order: a fresh Status pull for
// live daemons, the last snapshot for dead ones — so a crashed shard's solve
// work stays countable in the merged result.
func (s *Service) Stats() ([]ShardStatus, error) {
	out := make([]ShardStatus, len(s.shards))
	for k, m := range s.shards {
		if m.down {
			out[k] = m.status
			continue
		}
		st, err := m.client.Status()
		if err != nil {
			// Degrade to the last known accounting; a dead connection marks
			// the shard down so its jobs recover.
			if err = s.degradeOrErr(m, err); err != nil {
				return nil, err
			}
			out[k] = m.status
			continue
		}
		m.status = st
		out[k] = st
	}
	return out, nil
}

// JobShards returns the job → shard index placement map (copy; exposed for
// tests and observability).
func (s *Service) JobShards() map[int]int {
	out := make(map[int]int, len(s.shardOf))
	for id, k := range s.shardOf {
		out[id] = k
	}
	return out
}

// Close closes every shard client connection and commits and closes the
// journal, if any.
func (s *Service) Close() error {
	var first error
	for _, m := range s.shards {
		if err := m.client.Close(); err != nil && first == nil {
			first = err
		}
	}
	if s.j != nil {
		if err := s.j.close(); err != nil && first == nil {
			first = err
		}
		s.j = nil
	}
	return first
}
