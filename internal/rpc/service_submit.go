package rpc

// The Service half of the submission plane: the thread-safe client surface
// (Submit / Withdraw / Poll — the only Service methods safe to call
// concurrently with the round loop) and the round-loop integration points
// (ExpireAbandoned, AdmitPending, ObserveMeasured, and the round boundary
// EndRound and replay share). Every submission-plane change is journaled
// before it is applied: a submission the log does not hold must not be
// acknowledged. All of it is a no-op pass-through when
// ServiceConfig.Admission is nil.
//
// Liveness accounting is journal-backed by construction: a tenant's
// lastActive clock advances only on journaled contacts (an accepted Submit,
// a client Withdraw, a Poll's recTouch), so the abandoned-client TTL fires
// at the same round on a resumed coordinator as it would have live.

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Submit accepts one streamed job into the tenant's ingress queue (or
// dedupes against the idempotency key, or refuses with CodeOverload and a
// retry-after hint). Safe for concurrent use.
func (s *Service) Submit(a SubmitArgs) (SubmitReply, error) {
	if s.ing == nil {
		return SubmitReply{}, Errorf(CodeBadRequest, "submission plane is not enabled on this coordinator")
	}
	if a.Tenant == "" || a.Key == "" {
		return SubmitReply{}, Errorf(CodeBadRequest, "submission needs a tenant and an idempotency key")
	}
	if err := ValidateTput(s.numTypes, a.Tput); err != nil {
		return SubmitReply{}, err
	}
	if math.IsNaN(a.TotalSteps) || math.IsInf(a.TotalSteps, 0) || a.TotalSteps < 0 {
		return SubmitReply{}, Errorf(CodeBadRequest, "total steps %v is not a finite non-negative count", a.TotalSteps)
	}
	if a.ScaleFactor < 1 {
		a.ScaleFactor = 1
	}
	ing := s.ing
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if sub, ok := ing.byKey[submissionKey(a.Tenant, a.Key)]; ok {
		// At-least-once retry of a submission the journal already holds:
		// answer with its current state instead of double-admitting.
		return SubmitReply{JobID: sub.jobID, State: sub.state}, nil
	}
	t := ing.tenantLocked(a.Tenant, ing.round)
	if t.queued >= ing.cfg.MaxQueuePerTenant {
		t.refused++
		ing.decideLocked(ing.round, a.Tenant, a.Key, "refuse",
			fmt.Sprintf("ingress queue full (%d queued)", t.queued))
		return SubmitReply{}, Overloadf(ing.retryAfterLocked(t),
			"tenant %q ingress queue is full (%d queued)", a.Tenant, t.queued)
	}
	js := &journalSubmit{
		Tenant:      a.Tenant,
		Key:         a.Key,
		Name:        a.Name,
		JobID:       ing.nextJobID,
		ScaleFactor: a.ScaleFactor,
		SLOClass:    a.SLOClass,
		TotalSteps:  a.TotalSteps,
		Tput:        append([]float64(nil), a.Tput...),
		Round:       ing.round,
	}
	rec := &journalRecord{Kind: recSubmit, Submit: js}
	if err := s.record(rec); err != nil {
		return SubmitReply{}, err
	}
	ing.applyLocked(rec)
	return SubmitReply{JobID: js.JobID, State: SubmissionQueued}, nil
}

// Withdraw removes a submission by its idempotency key: queued submissions
// leave immediately, admitted ones are flagged and removed by the next
// AdmitPending pass (Poll shows Withdrawn once that lands). Unknown keys are
// a no-op SubmissionUnknown, so retries are safe. Safe for concurrent use.
func (s *Service) Withdraw(a WithdrawArgs) (WithdrawReply, error) {
	if s.ing == nil {
		return WithdrawReply{}, Errorf(CodeBadRequest, "submission plane is not enabled on this coordinator")
	}
	ing := s.ing
	ing.mu.Lock()
	defer ing.mu.Unlock()
	sub := ing.byKey[submissionKey(a.Tenant, a.Key)]
	if sub == nil {
		return WithdrawReply{State: SubmissionUnknown}, nil
	}
	switch sub.state {
	case SubmissionDone, SubmissionWithdrawn, SubmissionRejected:
		return WithdrawReply{State: sub.state}, nil
	}
	rec := &journalRecord{Kind: recWithdraw, Ref: &journalSubmitRef{Tenant: a.Tenant, Key: a.Key, Reason: withdrawClient, Round: ing.round}}
	if err := s.record(rec); err != nil {
		return WithdrawReply{}, err
	}
	ing.applyLocked(rec)
	return WithdrawReply{State: sub.state}, nil
}

// Poll reports a submission's state and refreshes the tenant's liveness
// clock (journaled at most once per tenant per round). Safe for concurrent
// use.
func (s *Service) Poll(a PollArgs) (PollReply, error) {
	if s.ing == nil {
		return PollReply{}, Errorf(CodeBadRequest, "submission plane is not enabled on this coordinator")
	}
	ing := s.ing
	ing.mu.Lock()
	defer ing.mu.Unlock()
	rep := PollReply{State: SubmissionUnknown, Shard: -1, Round: ing.round}
	if t, ok := ing.tenants[a.Tenant]; ok && t.lastActive < ing.round {
		rec := &journalRecord{Kind: recTouch, Ref: &journalSubmitRef{Tenant: a.Tenant, Round: ing.round}}
		if err := s.record(rec); err != nil {
			return rep, err
		}
		ing.applyLocked(rec)
	}
	if sub := ing.byKey[submissionKey(a.Tenant, a.Key)]; sub != nil {
		rep.JobID = sub.jobID
		rep.State = sub.state
		rep.Shard = sub.shard
	}
	return rep, nil
}

// ExpireAbandoned withdraws every submission of tenants that have made no
// journaled contact for more than AbandonAfterRounds rounds — the
// crashed-client TTL, so abandoned submissions don't strand residency. The
// flagged admitted jobs are removed by the AdmitPending pass that follows.
// Round-loop only.
func (s *Service) ExpireAbandoned(round int64) error {
	if s.ing == nil || s.ing.cfg.AbandonAfterRounds <= 0 {
		return nil
	}
	ing := s.ing
	ing.mu.Lock()
	defer ing.mu.Unlock()
	ttl := int64(ing.cfg.AbandonAfterRounds)
	for _, name := range ing.order {
		t := ing.tenants[name]
		if round-t.lastActive <= ttl || (t.queued == 0 && t.resident == 0) {
			continue
		}
		var stale []*submission
		for _, sub := range ing.queue {
			if sub.tenant == name {
				stale = append(stale, sub)
			}
		}
		for _, id := range ing.residentIDsLocked(name) {
			if sub := ing.byJob[id]; !sub.withdraw {
				stale = append(stale, sub)
			}
		}
		for _, sub := range stale {
			rec := &journalRecord{Kind: recWithdraw, Ref: &journalSubmitRef{Tenant: name, Key: sub.key, Reason: withdrawAbandoned, Round: round}}
			if err := s.record(rec); err != nil {
				return err
			}
			ing.applyLocked(rec)
			ing.decideLocked(round, name, sub.key, "abandon",
				fmt.Sprintf("no client contact since round %d", t.lastActive))
		}
	}
	return nil
}

// AdmitPending is the round loop's queue drain: it removes withdraw-flagged
// admitted jobs, runs the shedding ladder when overload has persisted, then
// admits queued submissions in acceptance order — skipping (deferring, not
// blocking) tenants that are out of tokens or at their resident cap — and
// returns the newly admitted job IDs. Quarantined tenants' fresh jobs are
// installed with their declared rows pre-scaled by the clamp ratio. Round-loop
// only.
func (s *Service) AdmitPending(round int64) ([]int, error) {
	if s.ing == nil {
		return nil, nil
	}
	ing := s.ing
	// Withdrawals first: flagged jobs leave before new work is admitted.
	ing.mu.Lock()
	pend := ing.pendingWithdraw
	ing.pendingWithdraw = nil
	var removals []int
	for _, sub := range pend {
		if sub.state == SubmissionAdmitted && sub.withdraw {
			removals = append(removals, sub.jobID)
		}
	}
	ing.mu.Unlock()
	for _, id := range removals {
		if err := s.Remove(id); err != nil {
			return nil, err
		}
	}
	type cand struct {
		id, sf int
		tput   []float64
	}
	var batch []cand
	ing.mu.Lock()
	if ing.overloadRounds >= ing.cfg.ShedAfterRounds {
		// Escalate from deferring to shedding: reject queued submissions,
		// lowest SLO class first (ties to the most recent arrival, so the
		// oldest work of a class survives longest), until the global queue is
		// back under the high-water mark.
		for len(ing.queue) > ing.cfg.ShedQueueDepth {
			vi := 0
			for i, sub := range ing.queue {
				if sub.sloClass <= ing.queue[vi].sloClass {
					vi = i
				}
			}
			victim := ing.queue[vi]
			rec := &journalRecord{Kind: recReject, Ref: &journalSubmitRef{Tenant: victim.tenant, Key: victim.key, Round: round}}
			if err := s.record(rec); err != nil {
				ing.mu.Unlock()
				return nil, err
			}
			ing.applyLocked(rec)
			ing.decideLocked(round, victim.tenant, victim.key, "shed",
				fmt.Sprintf("overload for %d rounds: queue %d > %d, slo class %d",
					ing.overloadRounds, len(ing.queue)+1, ing.cfg.ShedQueueDepth, victim.sloClass))
		}
	}
	// Candidate selection against tentative per-tenant budgets; the real
	// token/resident consumption happens in noteAdmitted when each install
	// lands (the same hook replay drives from recInstall).
	tokens := map[string]float64{}
	resident := map[string]int{}
	for _, sub := range ing.queue {
		t := ing.tenants[sub.tenant]
		tok, ok := tokens[sub.tenant]
		if !ok {
			tok = t.tokens
		}
		res, ok := resident[sub.tenant]
		if !ok {
			res = t.resident
		}
		if ing.cfg.RatePerRound > 0 && tok < 1 {
			continue
		}
		if ing.cfg.MaxResidentPerTenant > 0 && res >= ing.cfg.MaxResidentPerTenant {
			continue
		}
		row := sub.tput
		if t.quarantined {
			row = make([]float64, len(sub.tput))
			for j, v := range sub.tput {
				row[j] = v * t.ratio
			}
		}
		batch = append(batch, cand{id: sub.jobID, sf: sub.scaleFactor, tput: row})
		tokens[sub.tenant] = tok - 1
		resident[sub.tenant] = res + 1
	}
	ing.mu.Unlock()
	// Installs run outside ing.mu so clients stay responsive; the mirror is
	// round-loop-only state, so no extra locking is needed there.
	var admitted []int
	for _, c := range batch {
		if _, err := s.admitJob(c.id, c.sf, c.tput); err != nil {
			return admitted, err
		}
		admitted = append(admitted, c.id)
	}
	return admitted, nil
}

// ObserveMeasured folds one worker-measured throughput sample (steps/sec on
// accelerator type accType) into the job's journaled EWMA row — the feedback
// the trust review cross-checks declarations against. Non-finite,
// non-positive, or unknown-job samples are ignored. Round-loop only.
func (s *Service) ObserveMeasured(jobID, accType int, rate float64) error {
	if s.ing == nil {
		return nil
	}
	if accType < 0 || accType >= s.numTypes || math.IsNaN(rate) || math.IsInf(rate, 0) || rate <= 0 {
		return nil
	}
	ing := s.ing
	ing.mu.Lock()
	defer ing.mu.Unlock()
	sub := ing.byJob[jobID]
	if sub == nil || sub.state != SubmissionAdmitted {
		return nil
	}
	s.measure = journalMeasure{JobID: jobID, Type: accType, Rate: rate}
	s.measureRec = journalRecord{Kind: recMeasure, Measure: &s.measure}
	if err := s.record(&s.measureRec); err != nil {
		return err
	}
	ing.applyLocked(&s.measureRec)
	return nil
}

// boundary runs the round boundary's deterministic ingress work (token
// refill, overload ladder, trust review) and lands the review's
// effective-throughput rows in the mirror, reallocation-triggering when a row
// actually changed. It journals nothing and reads only journaled state, so
// EndRound and recRound replay share it; it returns the clamps for EndRound
// to push.
func (s *Service) boundary(r int64) []jobClamp {
	if s.ing == nil {
		return nil
	}
	clamps := s.ing.endRound(r)
	for _, cl := range clamps {
		k, ok := s.shardOf[cl.jobID]
		if !ok {
			continue
		}
		if m := s.shards[k]; !slices.Equal(m.tput[cl.jobID], cl.tput) {
			m.tput[cl.jobID] = append([]float64(nil), cl.tput...)
			m.dirty = true
		}
	}
	return clamps
}

// pushClamps is the live half of the round boundary: it pushes the clamp rows
// to the owning daemons via ObserveJob. Pushes repeat every review round
// while a tenant stays quarantined — the overwrite is idempotent, and
// repetition heals a push a degraded round lost.
//
// Each live shard's pushes run as one chain, in clamp order, the chains
// concurrently. A shard sees exactly the calls, in exactly the order, the
// one-at-a-time loop would make: a transient failure degrades the round and
// the chain goes on, anything else ends that shard's chain. Outcomes land
// after the join, shards ascending.
func (s *Service) pushClamps(clamps []jobClamp) error {
	for _, m := range s.shards {
		m.pushes = m.pushes[:0]
	}
	for _, cl := range clamps {
		if k, ok := s.shardOf[cl.jobID]; ok && !s.shards[k].down {
			s.shards[k].pushes = append(s.shards[k].pushes, ObserveJobArgs{JobID: cl.jobID, Tput: cl.tput, Trace: s.curTrace})
		}
	}
	s.fan = s.fan[:0]
	for k, m := range s.shards {
		if len(m.pushes) > 0 {
			s.fan = append(s.fan, k)
		}
	}
	if len(s.fan) == 0 {
		return nil // no live shard holds a clamped job
	}
	fanOut(s.fan, func(k int) {
		m := s.shards[k]
		m.pushDegraded, m.pushErr = false, nil
		for _, a := range m.pushes {
			if err := m.client.ObserveJob(a); err != nil {
				if IsTransient(CodeOf(err)) {
					m.pushDegraded = true
					continue
				}
				m.pushErr = err
				return
			}
		}
	})
	for _, k := range s.fan {
		m := s.shards[k]
		if m.pushDegraded {
			s.roundDegraded = true
		}
		if err := s.degradeOrErr(m, m.pushErr); err != nil {
			return err
		}
	}
	return nil
}

// SubmissionInfo is one submission's externally visible state — what a
// resuming driver needs to pick its streamed jobs back up.
type SubmissionInfo struct {
	Tenant      string
	Key         string
	Name        string
	JobID       int
	State       SubmissionState
	Shard       int
	TotalSteps  float64
	ScaleFactor int
	SLOClass    int
	Tput        []float64
}

// Submissions returns every known submission ordered by job ID. Safe for
// concurrent use.
func (s *Service) Submissions() []SubmissionInfo {
	if s.ing == nil {
		return nil
	}
	ing := s.ing
	ing.mu.Lock()
	defer ing.mu.Unlock()
	out := make([]SubmissionInfo, 0, len(ing.byJob))
	for _, id := range sortedJobIDsLocked(ing) {
		sub := ing.byJob[id]
		out = append(out, SubmissionInfo{
			Tenant:      sub.tenant,
			Key:         sub.key,
			Name:        sub.name,
			JobID:       sub.jobID,
			State:       sub.state,
			Shard:       sub.shard,
			TotalSteps:  sub.totalSteps,
			ScaleFactor: sub.scaleFactor,
			SLOClass:    sub.sloClass,
			Tput:        append([]float64(nil), sub.tput...),
		})
	}
	return out
}

func sortedJobIDsLocked(ing *ingress) []int {
	ids := make([]int, 0, len(ing.byJob))
	for id := range ing.byJob {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// TenantStats returns per-tenant accounting in first-contact order. Safe for
// concurrent use.
func (s *Service) TenantStats() []TenantStatus {
	if s.ing == nil {
		return nil
	}
	ing := s.ing
	ing.mu.Lock()
	defer ing.mu.Unlock()
	out := make([]TenantStatus, 0, len(ing.order))
	for _, name := range ing.order {
		t := ing.tenants[name]
		out = append(out, TenantStatus{
			Tenant:      name,
			Submitted:   t.submitted,
			Admitted:    t.admitted,
			Refused:     t.refused,
			Shed:        t.shed,
			Withdrawn:   t.withdrawn,
			Done:        t.done,
			Queued:      t.queued,
			Resident:    t.resident,
			Quarantined: t.quarantined,
			ClampRatio:  t.ratio,
		})
	}
	return out
}

// Decisions returns a copy of the shed/quarantine/abandon decision log. Safe
// for concurrent use.
func (s *Service) Decisions() []AdmissionDecision {
	if s.ing == nil {
		return nil
	}
	ing := s.ing
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return append([]AdmissionDecision(nil), ing.decisions...)
}

// QueueDepth returns the global queued-submission count. Safe for concurrent
// use.
func (s *Service) QueueDepth() int {
	if s.ing == nil {
		return 0
	}
	s.ing.mu.Lock()
	defer s.ing.mu.Unlock()
	return len(s.ing.queue)
}

// QuarantinedJobs counts shard k's resident jobs belonging to quarantined
// tenants — the per-shard quarantine surface ShardStats reporting merges.
// Safe for concurrent use.
func (s *Service) QuarantinedJobs(k int) int {
	if s.ing == nil {
		return 0
	}
	ing := s.ing
	ing.mu.Lock()
	defer ing.mu.Unlock()
	n := 0
	for _, sub := range ing.byJob {
		if sub.state == SubmissionAdmitted && sub.shard == k && ing.tenants[sub.tenant].quarantined {
			n++
		}
	}
	return n
}
