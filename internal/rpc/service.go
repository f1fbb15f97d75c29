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
// without harm. The service copies the rows before its next call, so the
// source may answer in a reused buffer. Nil disables space sharing.
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
	// and sealed rounds since the last one (written by the alloc, degrade and
	// round records only, so a resumed run keeps the realloc cadence).
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
	// pairRows' and AssignRound's results, until their next calls.
	pairs      []PairRows
	pairVals   []float64
	perShard   [][]scheduler.Assignment
	assignErrs []error
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
	// measure and measureRec are ObserveMeasured's record, reused for every
	// sample under ing.mu: the journal has encoded it by the time append
	// returns, and the ingress keeps no pointer into it.
	measure    journalMeasure
	measureRec journalRecord

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

// replay validates the journal's i-th record — shard in range, payload
// present, the header naming this service's shape — and lands it with the
// live path's own transition (apply, or the ingress's applyLocked for
// submission kinds), so replayed and lived-through state cannot drift. A
// round record first re-runs the round boundary, which journals nothing of
// its own. Over the whole log this rebuilds the exact pre-crash coordinator
// state without touching any daemon.
func (s *Service) replay(i int, rec *journalRecord) error {
	in := func(k int) bool { return k >= 0 && k < len(s.shards) }
	ok, ingress := true, false // well-formed; a submission-plane kind
	switch rec.Kind {
	case recConfig:
		return s.checkHeader(i, rec.Config)
	case recInstall:
		ok = rec.Install != nil && in(rec.Install.Shard)
	case recRemove:
		ok = rec.Remove != nil && in(rec.Remove.Shard)
	case recAlloc:
		ok = rec.Alloc != nil && in(rec.Alloc.Shard)
	case recSnapshot:
		ok = rec.Snapshot != nil && in(rec.Snapshot.Shard)
	case recDown, recDirty, recDegrade:
		ok = in(rec.Shard)
	case recRebalance, recRound:
	case recSubmit:
		ok, ingress = rec.Submit != nil, true
	case recReject, recWithdraw, recTouch:
		ok, ingress = rec.Ref != nil, true
	case recMeasure:
		ok, ingress = rec.Measure != nil, true
	default:
		return Errorf(CodeBadRequest, "journal record %d: unknown kind %d", i, rec.Kind)
	}
	if ingress && s.ing == nil {
		return Errorf(CodeBadRequest, "journal record %d: submission record without an admission config", i)
	}
	if !ok {
		return Errorf(CodeBadRequest, "journal record %d: malformed record of kind %d", i, rec.Kind)
	}
	switch {
	case ingress:
		s.ing.mu.Lock()
		s.ing.applyLocked(rec)
		s.ing.mu.Unlock()
	case rec.Kind == recRound:
		s.boundary(rec.Round)
		fallthrough
	default:
		s.apply(rec)
	}
	return nil
}

// checkHeader refuses a journal written for a differently-shaped service:
// another shard count, policy or routing would replay every record onto the
// wrong partition or under the wrong allocation rule.
func (s *Service) checkHeader(i int, c *journalConfig) error {
	if i != 0 { // record 0 is the header readJournal has checked
		return Errorf(CodeBadRequest, "journal record %d: config record past the header", i)
	}
	if c.NumShards != len(s.shards) {
		return Errorf(CodeBadRequest, "journal was written for %d shards, service has %d", c.NumShards, len(s.shards))
	}
	if c.Policy != s.cfg.Policy || c.Route != int(s.cfg.Route) {
		return Errorf(CodeBadRequest, "journal was written for policy %+v with %v routing, service has %+v with %v routing",
			c.Policy, cluster.RoutePolicy(c.Route), s.cfg.Policy, s.cfg.Route)
	}
	return nil
}

// apply is the coordinator's one transition function: it lands a mirror
// record's state change — placement, membership, allocation, staleness,
// counters and their telemetry — in the mirror. Every live mutator builds its
// record and goes through here (applyRecord: apply, then append, because the
// daemon has already acted), and replay calls it over the log, so each record
// kind's change is written once. Replay runs before setObs, so the telemetry
// counters are nil there and nothing is counted twice.
func (s *Service) apply(rec *journalRecord) {
	switch rec.Kind {
	case recInstall:
		in := rec.Install
		s.shards[in.Shard].add(in.JobID, in.ScaleFactor, in.Tput)
		s.shardOf[in.JobID] = in.Shard
		if s.ing != nil {
			s.ing.noteAdmitted(in.JobID, in.Shard)
		}
		switch in.Reason {
		case reasonMigrate:
			s.migrations++
			s.tel.migrations.Inc()
		case reasonRecover:
			s.recoveries++
			s.tel.recoveries.Inc()
		}
	case recRemove:
		// The placement entry is cleared only if it still points at this
		// shard: a recovery's install on the new shard lands before the
		// removal from the dead one.
		k, id := rec.Remove.Shard, rec.Remove.JobID
		s.shards[k].remove(id)
		if at, ok := s.shardOf[id]; ok && at == k {
			delete(s.shardOf, id)
			if s.ing != nil {
				// The job left its placement entirely: resolve its submission.
				// A migration's remove-then-install resolves and revives it.
				s.ing.noteRemoved(id)
			}
		}
	case recDown:
		m := s.shards[rec.Shard]
		m.down, m.alloc, m.allocIDs = true, nil, nil
	case recDirty:
		s.shards[rec.Shard].dirty = true
	case recAlloc:
		m := s.shards[rec.Alloc.Shard]
		m.alloc = &core.Allocation{Units: rec.Alloc.Units, X: rec.Alloc.X}
		m.allocIDs = rec.Alloc.IDs
		m.dirty = false
		m.staleRounds, m.sinceAlloc = 0, 0
	case recSnapshot:
		m := s.shards[rec.Snapshot.Shard]
		m.seeds, m.status = rec.Snapshot.Seeds, rec.Snapshot.Status
	case recRebalance:
		s.rebalances++
		s.tel.rebalances.Inc()
	case recDegrade:
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
			s.tel.degraded.Inc()
		}
		s.tel.rounds.Inc()
	}
}

// applyRecord lands a mirror record, then journals it (the append is a no-op
// without a journal): the daemon has already acted, so the mirror follows it
// whether or not the append succeeds, and a failed append fails the round.
func (s *Service) applyRecord(rec *journalRecord) error {
	s.apply(rec)
	return s.record(rec)
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
			if err := s.resend(m, id); err != nil {
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
	if s.shards[k].dirty {
		return nil
	}
	return s.applyRecord(&journalRecord{Kind: recDirty, Shard: k})
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
	// The round boundary first; its clamp pushes can degrade the round, so
	// they run before the record reads the degraded flag.
	if err := s.pushClamps(s.boundary(r)); err != nil {
		return err
	}
	rec := &journalRecord{Kind: recRound, Round: r, Degraded: s.roundDegraded}
	s.roundDegraded = false
	s.apply(rec)
	// The commit closes the sealed round's trace; calls landing between this
	// seal and the next belong to round r+1.
	sealed := s.curTrace
	s.curTrace = obs.RoundTrace(r + 1)
	defer s.syncObs()
	if s.j == nil {
		return nil
	}
	if err := s.j.append(rec); err != nil {
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

// markDown flags a shard dead and journals the transition.
func (s *Service) markDown(m *shardMirror) error {
	if m.down {
		return nil
	}
	err := s.applyRecord(&journalRecord{Kind: recDown, Shard: m.index})
	s.tel.tr.Begin(s.curTrace, "coord.shard_down").OnShard(m.index).End(nil)
	s.syncObs()
	return err
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
	s.roundDegraded = true
	err := s.applyRecord(&journalRecord{Kind: recDegrade, Shard: m.index})
	s.tel.tr.Begin(s.curTrace, "coord.degrade_alloc").OnShard(m.index).
		AttrInt("stale_rounds", int64(m.staleRounds)).End(nil)
	if err != nil {
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
// are harmless. The rows are copied out of the PairSource into the
// service's slab; the result is valid until the next call.
func (s *Service) pairRows(m *shardMirror, id, scaleFactor int) []PairRows {
	if s.cfg.Pairs == nil || scaleFactor > 1 {
		return nil
	}
	out, vals := s.pairs[:0], s.pairVals[:0]
	for _, other := range m.jobs {
		if other == id || m.sf[other] > 1 {
			continue
		}
		ta, tb := s.cfg.Pairs(id, other)
		if ta == nil {
			continue
		}
		// Rows cut before vals grows stay in the array it leaves, unwritten.
		at, mid := len(vals), len(vals)+len(ta)
		vals = append(append(vals, ta...), tb...)
		out = append(out, PairRows{A: id, B: other, Ta: vals[at:mid:mid], Tb: vals[mid:len(vals):len(vals)]})
	}
	s.pairs, s.pairVals = out, vals
	return out
}

// install lands a job on shard m — over the wire, in the mirror, and in the
// journal (after the daemon's ack, so the journal never claims more than the
// daemons hold; a crash between ack and append re-runs as an idempotent
// re-install during reconcile).
func (s *Service) install(m *shardMirror, args InstallArgs, reason installReason) error {
	if err := s.send(m, args); err != nil {
		return err
	}
	return s.applyRecord(&journalRecord{Kind: recInstall, Install: &journalInstall{
		Shard:       m.index,
		JobID:       args.JobID,
		ScaleFactor: args.ScaleFactor,
		Tput:        args.Tput,
		Reason:      reason,
	}})
}

// send ships one Install to m's daemon, stamped with the round's trace and
// the pair candidates the job gains on m. It touches neither the mirror nor
// the journal.
func (s *Service) send(m *shardMirror, args InstallArgs) error {
	args.Trace = s.curTrace
	args.Pairs = s.pairRows(m, args.JobID, args.ScaleFactor)
	return m.client.Install(args)
}

// resend re-sends a job the mirror places on m to m's daemon, from the
// mirror's row with m's last snapshot seeds: reconcile's re-install onto a
// bare daemon, and migrate's repair of an Extract whose reply was lost.
func (s *Service) resend(m *shardMirror, id int) error {
	return s.send(m, InstallArgs{JobID: id, ScaleFactor: m.sf[id], Tput: m.tput[id], Seeds: m.seeds, Migrated: true})
}

// place installs a job on to, or — when to is nil or its install fails — on
// the least-loaded live shard, walking down the survivor list as
// destinations fail: the one landing path of admission, migration and
// recovery. Each failed attempt marks one more shard down, so the walk
// terminates.
func (s *Service) place(to *shardMirror, id, scaleFactor int, tput []float64, seeds []policy.Seed, reason installReason) (*shardMirror, error) {
	for ; ; to = nil {
		if to == nil {
			live := s.live()
			if len(live) == 0 {
				return nil, Errorf(CodeShardDown, "no live shard daemons")
			}
			to = leastLoaded(live)
		}
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
// the submission plane's AdmitPending. A routed daemon that turns out dead
// hands the job to place's least-loaded walk.
func (s *Service) admitJob(id, scaleFactor int, tput []float64) (int, error) {
	m, err := s.route(id)
	if err == nil {
		m, err = s.place(m, id, scaleFactor, tput, nil, reasonAdmit)
	}
	if err != nil {
		return -1, err
	}
	return m.index, nil
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
	return s.applyRecord(&journalRecord{Kind: recRemove, Remove: &journalRemove{Shard: k, JobID: id}})
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
			if rerr := s.resend(from, id); rerr != nil {
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
	if err := s.applyRecord(&journalRecord{Kind: recRemove, Remove: &journalRemove{Shard: from.index, JobID: id}}); err != nil {
		return err
	}
	// A destination that dies holding nothing (Install failed) hands the
	// already-extracted job to a surviving shard.
	_, err = s.place(to, id, rep.ScaleFactor, rep.Tput, rep.Seeds, reasonMigrate)
	return err
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
		if err := s.applyRecord(&journalRecord{Kind: recRebalance}); err != nil {
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
		err := s.applyRecord(&journalRecord{Kind: recAlloc, Alloc: &journalAlloc{Shard: k, AllocateReply: slots[k].rep}})
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
	s.perShard = append(s.perShard[:0], make([][]scheduler.Assignment, len(s.shards))...)
	s.assignErrs = append(s.assignErrs[:0], make([]error, len(s.shards))...)
	perShard, errs := s.perShard, s.assignErrs
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
		// PolicyTime is a wall clock, which no replay can reproduce: the
		// journal carries it zeroed, the live mirror keeps the real value.
		journaled := rep
		journaled.Status.PolicyTime = 0
		err = s.applyRecord(&journalRecord{Kind: recSnapshot, Snapshot: &journalSnapshot{Shard: m.index, SnapshotReply: journaled}})
		m.status.PolicyTime = rep.Status.PolicyTime
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
			to, err := s.place(nil, id, dead.sf[id], dead.tput[id], dead.seeds, reasonRecover)
			if err != nil {
				return migs, err
			}
			if err := s.applyRecord(&journalRecord{Kind: recRemove, Remove: &journalRemove{Shard: dead.index, JobID: id}}); err != nil {
				return migs, err
			}
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
