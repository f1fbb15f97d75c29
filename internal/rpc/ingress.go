package rpc

// This file is the submission plane's admission engine: the per-tenant
// ingress queues, quotas, token buckets, overload ladder, and the
// declared-vs-measured trust review behind Service.Submit / Withdraw / Poll.
//
// The ingress is the one part of the Service that IS safe for concurrent
// use: Submit/Withdraw/Poll arrive on RPC handler goroutines while the round
// loop runs, so everything here is guarded by ing.mu and never touches the
// shard mirror. The round loop moves work across the boundary at two points
// only — AdmitPending (queue -> mirror installs) and EndRound (token refill,
// overload evaluation, trust review) — and every state change either has its
// own journal record (recSubmit, recReject, recWithdraw, recTouch,
// recMeasure) or is a deterministic function of them replayed at round
// boundaries, so a resumed coordinator rebuilds the exact pre-crash ingress.
//
// Lock order: ing.mu may be held while appending to the journal (the journal
// has its own mutex); the converse never happens. Methods suffixed Locked
// require ing.mu; the rest take it themselves.

import (
	"math"
	"sort"
	"sync"

	"gavel/internal/obs"
)

// submission tracks one client-submitted job through its lifecycle.
type submission struct {
	tenant, key string
	jobID       int
	name        string
	totalSteps  float64
	scaleFactor int
	tput        []float64 // declared isolated throughput row
	sloClass    int

	state SubmissionState
	shard int   // placement while admitted (-1 otherwise)
	round int64 // round the submission was accepted

	// withdraw marks an admitted submission for removal by the next
	// AdmitPending pass (withdrawals of queued submissions act immediately).
	withdraw bool

	// measured is the EWMA of worker-reported throughputs per accelerator
	// type; seen marks which types have at least one sample. Both feed the
	// trust review.
	measured []float64
	seen     []bool
}

// tenantState is one tenant's quota, liveness, and trust state.
type tenantState struct {
	name   string
	queued int // submissions waiting in the ingress queue
	// resident counts admitted-and-running jobs (the MaxResidentPerTenant
	// quota's numerator).
	resident int
	// tokens is the admission token bucket: refilled by RatePerRound at each
	// EndRound, one consumed per admission. Starts full at Burst.
	tokens float64
	// lastActive is the last round the tenant contacted the coordinator
	// (Submit, Withdraw, or Poll) — the abandoned-client TTL's clock.
	lastActive int64

	// divergent counts consecutive trust reviews whose worst
	// declared/measured ratio exceeded QuarantineDivergence; at
	// QuarantineAfterRounds the tenant is quarantined and ratio fixes the
	// clamp factor for not-yet-measured types.
	divergent   int
	quarantined bool
	ratio       float64

	// Lifetime accounting (TenantStatus). refused counts edge rejections
	// (queue full) — live-only observability, deliberately not journaled.
	submitted, admitted, refused, shed, withdrawn, done int
}

// AdmissionDecision is one entry of the shed/quarantine decision log, the
// observability artifact CI uploads.
type AdmissionDecision struct {
	Round  int64
	Tenant string
	Key    string // empty for tenant-level decisions
	Action string // "refuse", "shed", "quarantine", "abandon"
	Detail string
}

// TenantStatus is one tenant's externally visible accounting.
type TenantStatus struct {
	Tenant      string
	Submitted   int // accepted into the queue
	Admitted    int // installed on a shard
	Refused     int // refused at the edge with CodeOverload (live-only count)
	Shed        int // rejected by the overload ladder
	Withdrawn   int // withdrawn by the client or the abandoned-client TTL
	Done        int // completed
	Queued      int // currently waiting
	Resident    int // currently admitted
	Quarantined bool
	// ClampRatio is the declared-row scale applied to a quarantined tenant's
	// unmeasured types (1 when not quarantined).
	ClampRatio float64
}

// jobClamp is one trust-review output: the effective throughput row job
// jobID must be scheduled with from now on.
type jobClamp struct {
	jobID int
	tput  []float64
}

// ingress is the submission plane's state. All fields are guarded by mu.
type ingress struct {
	mu       sync.Mutex
	cfg      AdmissionConfig
	numTypes int

	nextJobID int // coordinator-assigned job IDs, journaled via recSubmit

	queue   []*submission          // queued submissions in acceptance order
	byKey   map[string]*submission // "tenant\x00key" -> submission
	byJob   map[int]*submission
	tenants map[string]*tenantState
	order   []string // tenant names in first-contact order (deterministic)

	// pendingWithdraw holds admitted submissions flagged for removal; the
	// next AdmitPending drains it. Entries may be stale (already resolved) —
	// the drain re-checks state.
	pendingWithdraw []*submission

	round          int64 // last sealed round (mirrors Service.round)
	overloadRounds int   // consecutive rounds the global queue sat above ShedQueueDepth

	decisions []AdmissionDecision

	// dec counts every admission decision by action
	// (gavel_admission_decisions_total{action}); incremented at the same
	// choke point that feeds the decision log, including during journal
	// replay, so post-resume counters match the rebuilt ingress state.
	dec *obs.CounterVec
}

func newIngress(cfg AdmissionConfig, numTypes int) *ingress {
	cfg = cfg.withDefaults()
	return &ingress{
		cfg:       cfg,
		numTypes:  numTypes,
		nextJobID: cfg.JobIDBase,
		byKey:     map[string]*submission{},
		byJob:     map[int]*submission{},
		tenants:   map[string]*tenantState{},
	}
}

func submissionKey(tenant, key string) string { return tenant + "\x00" + key }

// tenantLocked returns (creating if needed) the tenant's state. New tenants
// start with a full token bucket.
func (ing *ingress) tenantLocked(name string, round int64) *tenantState {
	if t, ok := ing.tenants[name]; ok {
		return t
	}
	t := &tenantState{name: name, tokens: ing.cfg.Burst, lastActive: round, ratio: 1}
	ing.tenants[name] = t
	ing.order = append(ing.order, name)
	return t
}

func (ing *ingress) decideLocked(round int64, tenant, key, action, detail string) {
	ing.decisions = append(ing.decisions, AdmissionDecision{
		Round: round, Tenant: tenant, Key: key, Action: action, Detail: detail,
	})
	ing.dec.With(action).Inc()
}

// setObs registers the submission plane's instruments: the decision counters
// (children pre-registered at zero so scrapes see the full action
// vocabulary) and scrape-time gauges over the queue. The gauge closures take
// ing.mu themselves — the ingress is the concurrent-safe part of the
// Service, so sampling live state here is sound.
func (ing *ingress) setObs(p *obs.Plane) {
	if ing == nil || p == nil {
		return
	}
	reg := p.Registry()
	dec := reg.CounterVec("gavel_admission_decisions_total", "Admission-control decisions by action.", "action")
	for _, a := range []string{"refuse", "shed", "quarantine", "abandon"} {
		dec.With(a)
	}
	ing.mu.Lock()
	ing.dec = dec
	ing.mu.Unlock()
	reg.GaugeFunc("gavel_ingress_queue_depth", "Submissions waiting in the ingress queue.", func() float64 {
		ing.mu.Lock()
		defer ing.mu.Unlock()
		return float64(len(ing.queue))
	})
	reg.GaugeFunc("gavel_ingress_tenants", "Tenants that have contacted the coordinator.", func() float64 {
		ing.mu.Lock()
		defer ing.mu.Unlock()
		return float64(len(ing.tenants))
	})
	reg.GaugeFunc("gavel_ingress_quarantined_tenants", "Tenants currently quarantined by the trust review.", func() float64 {
		ing.mu.Lock()
		defer ing.mu.Unlock()
		n := 0
		for _, t := range ing.tenants {
			if t.quarantined {
				n++
			}
		}
		return float64(n)
	})
}

// dequeueLocked removes sub from the waiting queue (identity match).
func (ing *ingress) dequeueLocked(sub *submission) {
	for i, q := range ing.queue {
		if q == sub {
			ing.queue = append(ing.queue[:i], ing.queue[i+1:]...)
			return
		}
	}
}

// applyLocked lands one submission-plane record in the ingress: the one
// write side of Submit, Withdraw, Poll, ExpireAbandoned, the shed ladder,
// ObserveMeasured and their replay. The live callers journal the record
// first, so nothing the log does not hold is ever acknowledged.
func (ing *ingress) applyLocked(rec *journalRecord) {
	switch rec.Kind {
	case recSubmit: // accept one submission into the queue
		js := rec.Submit
		t := ing.tenantLocked(js.Tenant, js.Round)
		sub := &submission{
			tenant:      js.Tenant,
			key:         js.Key,
			jobID:       js.JobID,
			name:        js.Name,
			totalSteps:  js.TotalSteps,
			scaleFactor: js.ScaleFactor,
			tput:        append([]float64(nil), js.Tput...),
			sloClass:    js.SLOClass,
			state:       SubmissionQueued,
			shard:       -1,
			round:       js.Round,
		}
		ing.byKey[submissionKey(js.Tenant, js.Key)] = sub
		ing.byJob[js.JobID] = sub
		ing.queue = append(ing.queue, sub)
		t.queued++
		t.submitted++
		if js.Round > t.lastActive {
			t.lastActive = js.Round
		}
		if js.JobID >= ing.nextJobID {
			ing.nextJobID = js.JobID + 1
		}
	case recReject: // the overload ladder sheds one queued submission
		ref := rec.Ref
		sub := ing.byKey[submissionKey(ref.Tenant, ref.Key)]
		if sub == nil || sub.state != SubmissionQueued {
			return
		}
		ing.dequeueLocked(sub)
		sub.state = SubmissionRejected
		t := ing.tenantLocked(ref.Tenant, ref.Round)
		t.queued--
		t.shed++
	case recWithdraw: // queued submissions leave now, admitted ones at the next AdmitPending
		ref := rec.Ref
		sub := ing.byKey[submissionKey(ref.Tenant, ref.Key)]
		if sub == nil {
			return
		}
		t := ing.tenantLocked(ref.Tenant, ref.Round)
		if ref.Round > t.lastActive && ref.Reason == withdrawClient {
			t.lastActive = ref.Round
		}
		switch sub.state {
		case SubmissionQueued:
			ing.dequeueLocked(sub)
			sub.state = SubmissionWithdrawn
			t.queued--
			t.withdrawn++
		case SubmissionAdmitted:
			if !sub.withdraw {
				sub.withdraw = true
				ing.pendingWithdraw = append(ing.pendingWithdraw, sub)
			}
		}
	case recTouch: // a Poll advances the tenant's liveness clock
		if t, ok := ing.tenants[rec.Ref.Tenant]; ok && rec.Ref.Round > t.lastActive {
			t.lastActive = rec.Ref.Round
		}
	case recMeasure: // fold one worker-measured sample into the job's EWMA row
		m := rec.Measure
		sub := ing.byJob[m.JobID]
		if sub == nil || m.Type < 0 || m.Type >= ing.numTypes {
			return
		}
		if sub.measured == nil {
			sub.measured = make([]float64, ing.numTypes)
			sub.seen = make([]bool, ing.numTypes)
		}
		if !sub.seen[m.Type] {
			sub.measured[m.Type] = m.Rate
			sub.seen[m.Type] = true
		} else {
			a := ing.cfg.MeasuredAlpha
			sub.measured[m.Type] = a*m.Rate + (1-a)*sub.measured[m.Type]
		}
	}
}

// noteAdmitted is the mirror-install hook: a job landing on a shard moves its
// submission to Admitted and consumes an admission token. Re-installs from
// migration or recovery just update the placement; the transient
// Done/Withdrawn a migration's remove-then-install produces is revived here
// (both live and replay walk the identical sequence).
func (ing *ingress) noteAdmitted(jobID, shard int) {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	sub := ing.byJob[jobID]
	if sub == nil {
		return
	}
	t := ing.tenants[sub.tenant]
	switch sub.state {
	case SubmissionQueued:
		ing.dequeueLocked(sub)
		sub.state = SubmissionAdmitted
		sub.shard = shard
		t.queued--
		t.resident++
		t.admitted++
		if ing.cfg.RatePerRound > 0 {
			if t.tokens -= 1; t.tokens < 0 {
				t.tokens = 0
			}
		}
	case SubmissionDone, SubmissionWithdrawn:
		if sub.state == SubmissionDone {
			t.done--
		} else {
			t.withdrawn--
			sub.withdraw = true
		}
		sub.state = SubmissionAdmitted
		sub.shard = shard
		t.resident++
		if sub.withdraw {
			ing.pendingWithdraw = append(ing.pendingWithdraw, sub)
		}
	case SubmissionAdmitted:
		sub.shard = shard
	}
}

// noteRemoved is the mirror-remove hook: a job leaving its placement
// entirely resolves its submission to Done (or Withdrawn, when flagged).
func (ing *ingress) noteRemoved(jobID int) {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	sub := ing.byJob[jobID]
	if sub == nil || sub.state != SubmissionAdmitted {
		return
	}
	t := ing.tenants[sub.tenant]
	t.resident--
	sub.shard = -1
	if sub.withdraw {
		sub.state = SubmissionWithdrawn
		t.withdrawn++
	} else {
		sub.state = SubmissionDone
		t.done++
	}
}

// residentIDsLocked returns tenant t's admitted job IDs in ascending order —
// the deterministic iteration the trust review and clamp pushes need.
func (ing *ingress) residentIDsLocked(tenant string) []int {
	var ids []int
	for id, sub := range ing.byJob {
		if sub.tenant == tenant && sub.state == SubmissionAdmitted {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// endRound advances the ingress clock at a round boundary: refill the token
// buckets, evaluate the overload ladder, and run the declared-vs-measured
// trust review. Returns the effective-throughput clamps for every job of a
// quarantined tenant (measured EWMA where sampled, declared x ratio where
// not). Called from the live EndRound and from recRound replay — it journals
// nothing and draws only on journaled state, which is what keeps a resumed
// coordinator's ingress byte-identical.
func (ing *ingress) endRound(r int64) []jobClamp {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	ing.round = r
	if ing.cfg.RatePerRound > 0 {
		for _, name := range ing.order {
			t := ing.tenants[name]
			if t.tokens += ing.cfg.RatePerRound; t.tokens > ing.cfg.Burst {
				t.tokens = ing.cfg.Burst
			}
		}
	}
	if len(ing.queue) > ing.cfg.ShedQueueDepth {
		ing.overloadRounds++
	} else {
		ing.overloadRounds = 0
	}
	var clamps []jobClamp
	for _, name := range ing.order {
		t := ing.tenants[name]
		maxDiv := 0.0
		for _, id := range ing.residentIDsLocked(name) {
			sub := ing.byJob[id]
			for j := 0; j < ing.numTypes && sub.seen != nil; j++ {
				if sub.seen[j] && sub.measured[j] > 0 && sub.tput[j] > 0 {
					if div := sub.tput[j] / sub.measured[j]; div > maxDiv {
						maxDiv = div
					}
				}
			}
		}
		if maxDiv > ing.cfg.QuarantineDivergence {
			t.divergent++
		} else {
			t.divergent = 0
		}
		if !t.quarantined && t.divergent >= ing.cfg.QuarantineAfterRounds {
			t.quarantined = true
			t.ratio = 1 / maxDiv
			ing.decideLocked(r, name, "", "quarantine",
				"declared/measured divergence persisted; rows clamped to measured")
		}
		if t.quarantined {
			for _, id := range ing.residentIDsLocked(name) {
				sub := ing.byJob[id]
				row := make([]float64, ing.numTypes)
				for j := range row {
					if sub.seen != nil && sub.seen[j] {
						row[j] = sub.measured[j]
					} else {
						row[j] = sub.tput[j] * t.ratio
					}
				}
				clamps = append(clamps, jobClamp{jobID: id, tput: row})
			}
		}
	}
	return clamps
}

// retryAfterLocked is the backpressure hint for tenant t: how many rounds
// until the token bucket plausibly clears the tenant's backlog.
func (ing *ingress) retryAfterLocked(t *tenantState) int {
	if ing.cfg.RatePerRound <= 0 {
		return 1
	}
	return int(math.Ceil(float64(t.queued) / ing.cfg.RatePerRound))
}
