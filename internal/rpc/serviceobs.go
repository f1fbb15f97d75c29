package rpc

// This file is the coordinator's half of the telemetry plane: service-level
// counters (rounds, degradation, migration/recovery/rebalance work), the
// per-round trace IDs stamped onto every control-plane call, and the /statusz
// shard table. The Service itself is single-threaded by design, so its gauges
// are plain Gauges written from the round loop — never GaugeFuncs, which
// would read the mirror from the scrape goroutine without a lock. The one
// concurrent-safe read surface is the statusz snapshot, rebuilt at each round
// seal under its own mutex.

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"gavel/internal/obs"
)

// serviceObs bundles the Service's instruments and trace state. All pointer
// fields stay nil when observability is off, so every call site can record
// unconditionally through the obs package's nil no-ops.
type serviceObs struct {
	plane *obs.Plane
	tr    *obs.Tracer

	rounds     *obs.Counter // gavel_rounds_total
	degraded   *obs.Counter // gavel_degraded_rounds_total
	migrations *obs.Counter // gavel_migrations_total
	recoveries *obs.Counter // gavel_recoveries_total
	rebalances *obs.Counter // gavel_rebalances_total
	shardsLive *obs.Gauge   // gavel_shards_live
	jobsPlaced *obs.Gauge   // gavel_jobs_placed

	// What resuming from the journal cost (zero on a fresh start): set by
	// NewService before setObs publishes it.
	replayed  replayStats
	replaySec float64

	// statusz is the round-sealed shard-table snapshot; the mutex makes
	// StatusText safe to call from the scrape goroutine while the round loop
	// rewrites it.
	muStatus sync.RWMutex
	statusz  string
}

// setObs registers the coordinator instruments and threads the plane into the
// journal and the ingress. Called once from NewService; a nil plane leaves
// every instrument nil (the obs-off fast path).
func (s *Service) setObs(p *obs.Plane) {
	if p == nil {
		return
	}
	reg := p.Registry()
	s.tel.plane = p
	s.tel.tr = p.Tracer()
	s.tel.rounds = reg.Counter("gavel_rounds_total", "Rounds sealed by EndRound.")
	s.tel.degraded = reg.Counter("gavel_degraded_rounds_total", "Rounds that proceeded with at least one shard degraded.")
	s.tel.migrations = reg.Counter("gavel_migrations_total", "Jobs moved between shards by rebalancing.")
	s.tel.recoveries = reg.Counter("gavel_recoveries_total", "Jobs re-routed off dead shards.")
	s.tel.rebalances = reg.Counter("gavel_rebalances_total", "Rebalance passes that moved at least one job.")
	s.tel.shardsLive = reg.Gauge("gavel_shards_live", "Shard daemons currently marked live.")
	s.tel.jobsPlaced = reg.Gauge("gavel_jobs_placed", "Jobs currently placed across all shards.")
	// A resumed coordinator seeds its counters from the replayed journal so
	// the series agree with the Round()/Migrations()/... getters.
	s.tel.rounds.Add(int(s.round))
	s.tel.degraded.Add(s.degradedRounds)
	s.tel.migrations.Add(s.migrations)
	s.tel.recoveries.Add(s.recoveries)
	s.tel.rebalances.Add(s.rebalances)
	reg.Counter("gavel_journal_replayed_records_total", "Journal records replayed into the mirror when this coordinator resumed.").Add(s.tel.replayed.records)
	reg.Gauge("gavel_journal_replay_seconds", "Time the last resume spent reading and replaying the journal.").Set(s.tel.replaySec)
	s.j.setObs(p)
	s.ing.setObs(p)
}

// syncObs refreshes the coordinator gauges and the statusz snapshot from the
// mirror. Called from the single-threaded round loop (EndRound, markDown) and
// once at the end of NewService; cheap no-op when observability is off.
func (s *Service) syncObs() {
	if s.tel.plane == nil {
		return
	}
	live := 0
	for _, m := range s.shards {
		if !m.down {
			live++
		}
	}
	s.tel.shardsLive.Set(float64(live))
	s.tel.jobsPlaced.Set(float64(len(s.shardOf)))

	var b strings.Builder
	fmt.Fprintf(&b, "round %d  shards %d/%d live  jobs %d  migrations %d  recoveries %d  rebalances %d  degraded rounds %d\n",
		s.round, live, len(s.shards), len(s.shardOf), s.migrations, s.recoveries, s.rebalances, s.degradedRounds)
	if st := s.tel.replayed; st.records > 0 {
		fmt.Fprintf(&b, "resumed from journal: %d records, %d bytes, %.1f ms\n",
			st.records, st.bytes, s.tel.replaySec*1e3)
	}
	fmt.Fprintf(&b, "%-6s %-6s %-5s %-6s %-6s %-11s %-10s\n",
		"shard", "state", "jobs", "load", "dirty", "staleRounds", "staleTotal")
	for _, m := range s.shards {
		state := "live"
		if m.down {
			state = "down"
		}
		fmt.Fprintf(&b, "%-6d %-6s %-5d %-6d %-6v %-11d %-10d\n",
			m.index, state, len(m.jobs), m.load, m.dirty, m.staleRounds, m.staleAllocs)
	}
	s.tel.muStatus.Lock()
	s.tel.statusz = b.String()
	s.tel.muStatus.Unlock()
}

// StatusText returns the last round seal's shard-table snapshot for /statusz.
// Safe for concurrent use (it reads the snapshot, never the mirror).
func (s *Service) StatusText() string {
	s.tel.muStatus.RLock()
	defer s.tel.muStatus.RUnlock()
	if s.tel.statusz == "" {
		return "no round sealed yet\n"
	}
	return s.tel.statusz
}

// TenantStatusText renders the per-tenant admission table for /statusz. Safe
// for concurrent use (TenantStats locks the ingress). Empty without a
// submission plane.
func (s *Service) TenantStatusText() string {
	stats := s.TenantStats()
	if len(stats) == 0 {
		return "no tenants\n"
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].Tenant < stats[j].Tenant })
	var b strings.Builder
	fmt.Fprintf(&b, "queue depth %d\n", s.QueueDepth())
	fmt.Fprintf(&b, "%-16s %-9s %-8s %-7s %-5s %-9s %-5s %-6s %-8s %-11s %-6s\n",
		"tenant", "submitted", "admitted", "refused", "shed", "withdrawn", "done", "queued", "resident", "quarantined", "clamp")
	for _, t := range stats {
		fmt.Fprintf(&b, "%-16s %-9d %-8d %-7d %-5d %-9d %-5d %-6d %-8d %-11v %-6.2f\n",
			t.Tenant, t.Submitted, t.Admitted, t.Refused, t.Shed, t.Withdrawn, t.Done,
			t.Queued, t.Resident, t.Quarantined, t.ClampRatio)
	}
	return b.String()
}
