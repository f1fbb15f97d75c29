package rpc

import (
	"fmt"
	"time"

	"gavel/internal/cluster"
	"gavel/internal/core"
	"gavel/internal/policy"
	"gavel/internal/scheduler"
)

// MeasuredSample is one worker-measured isolated rate (ObserveMeasured's input).
type MeasuredSample struct {
	JobID, Type int
	Rate        float64
}

// ShardRound is one shard's share of the round being built. Fresh: Alloc was
// recomputed this round. IDs indexes it. Assigns is nil under RoundPlan.Ideal.
type ShardRound struct {
	Shard   int
	Fresh   bool
	Alloc   *core.Allocation
	IDs     []int
	Assigns []scheduler.Assignment
}

// RoundPlan is what a caller brings to the protocol, built once per run. The
// hooks are listed in call order; all but Done and Info may be nil.
type RoundPlan struct {
	RoundSeconds float64
	// Cadences in rounds (0 = never). Rebalance and snapshot count sealed
	// rounds; realloc counts per shard since that shard's last allocation.
	RebalanceEvery, ReallocEvery, SnapshotEvery int
	Ideal                                       bool // skip the round mechanism

	Done     func(id int) bool     // finished: retire it, mask it from the round
	Arrive   func() error          // admit or submit what arrived since last round
	Admitted func(ids []int) error // what AdmitPending then let in (submission plane)
	// Idle is asked when nothing is resident. True returns with no round
	// sealed; false (or nil) seals an empty round, so admission tokens refill.
	Idle     func() bool
	Migrated func(migs []cluster.Migration, recovery bool) // rebalance or recovery moves
	Refresh  func(k int) error                             // re-push stale shard k's rows before it reallocates
	Info     func(id int) policy.JobInfo                   // policy input of a resident job
	// Progress applies one shard's round and returns whether a job finished and
	// what workers measured; shards ascending, each flushed before the next.
	Progress func(sh ShardRound) (finished bool, pairs []PairObservation, rates []MeasuredSample)
}

// RoundResult reports one RunRound: Sealed is false only when Idle declined;
// PolicyTime is the allocation fan-out's wall time (zero: no shard was stale);
// Assigns is the merged round per shard — free to leave the process, its seal
// being durable by the time the caller sees it, and valid until the next
// RunRound (the service and the shards reuse its storage).
type RoundResult struct {
	Sealed     bool
	PolicyTime time.Duration
	Assigns    [][]scheduler.Assignment
}

// RunRound builds and seals round Round()+1. It is the one place the order of
// a round's steps is written down, because that order is the journal's record
// order: the replay contract (DESIGN.md, "One round protocol"). Expiry,
// admission and rebalance read the sealed count; later steps, the round built.
func (s *Service) RunRound(p *RoundPlan) (out RoundResult, err error) {
	sealed, building := s.round, s.round+1
	var admitted []int
	if err = s.Retire(p.Done); err == nil && p.Arrive != nil {
		err = p.Arrive()
	}
	if err == nil && s.ing != nil {
		if err = s.ExpireAbandoned(sealed); err == nil {
			admitted, err = s.AdmitPending(sealed)
		}
		if err == nil && p.Admitted != nil {
			err = p.Admitted(admitted)
		}
	}
	if err != nil {
		return out, err
	}
	if len(s.shardOf) == 0 {
		if out.Sealed = p.Idle == nil || !p.Idle(); out.Sealed {
			err = s.EndRound(building)
		}
		return out, err
	}
	if p.RebalanceEvery > 0 && sealed > 0 && sealed%int64(p.RebalanceEvery) == 0 {
		if migs, err := s.Rebalance(); err != nil {
			return out, err
		} else if p.Migrated != nil && len(migs) > 0 {
			p.Migrated(migs, false)
		}
	}
	anyStale := false
	for k, m := range s.shards {
		if m.fresh = m.dirty || m.alloc == nil; !m.fresh {
			continue
		}
		anyStale = true
		if p.Refresh != nil && !m.down {
			if err = p.Refresh(k); err != nil {
				return out, err
			}
		}
	}
	if anyStale { // the clock is read on reset rounds only
		start := time.Now()
		if err = s.AllocateAll(building, p.Info, false); err != nil {
			return out, fmt.Errorf("policy %s: %w", s.cfg.Policy.Name, err)
		}
		out.PolicyTime = time.Since(start)
	}
	if !p.Ideal {
		if out.Assigns, err = s.AssignRound(building, p.RoundSeconds, p.Done); err != nil {
			return out, err
		}
	}
	for k, m := range s.shards {
		if p.Progress == nil || m.alloc == nil || len(m.alloc.Units) == 0 {
			continue
		}
		sh := ShardRound{Shard: k, Fresh: m.fresh, Alloc: m.alloc, IDs: m.allocIDs}
		if out.Assigns != nil {
			sh.Assigns = out.Assigns[k]
		}
		finished, pairs, rates := p.Progress(sh)
		if finished {
			err = s.MarkDirty(k)
		}
		if err == nil {
			err = s.Observe(k, pairs)
		}
		for i := 0; err == nil && i < len(rates); i++ {
			err = s.ObserveMeasured(rates[i].JobID, rates[i].Type, rates[i].Rate)
		}
		if err != nil {
			return out, err
		}
	}
	// The realloc cadence counts this round's seal too: the round record
	// advances sinceAlloc. A down shard is never allocated again.
	for k, m := range s.shards {
		if err == nil && !m.down && p.ReallocEvery > 0 && m.sinceAlloc+1 >= p.ReallocEvery {
			err = s.MarkDirty(k)
		}
	}
	if err == nil && p.SnapshotEvery > 0 && building%int64(p.SnapshotEvery) == 0 {
		err = s.SnapshotAll()
	}
	if err == nil && s.AnyDown() {
		var migs []cluster.Migration
		if migs, err = s.Recover(); err == nil && p.Migrated != nil {
			p.Migrated(migs, true)
		}
	}
	if err == nil {
		out.Sealed, err = true, s.EndRound(building)
	}
	return out, err
}
