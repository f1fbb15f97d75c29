package rpc

// This file is the wire vocabulary and configuration of the client
// submission plane (added in protocol v3): the messages clients use to
// stream jobs into a running coordinator — Submit, Withdraw, Poll — plus the
// admission knobs that bound what a tenant may do to the cluster. The
// Service-side engine lives in ingress.go; the network surface in
// submitserver.go.
//
// Submissions are identified by a client-chosen (tenant, key) pair, never by
// job ID: the coordinator assigns job IDs, and a retried Submit with a key it
// has already journaled dedupes instead of double-admitting. That is what
// makes the plane safe under at-least-once delivery — a client that times out
// and re-sends cannot create a second job.

import (
	"fmt"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// SubmissionState is the lifecycle of one submission through the ingress.
type SubmissionState int

const (
	// SubmissionUnknown: no submission with that (tenant, key) exists.
	SubmissionUnknown SubmissionState = iota
	// SubmissionQueued: accepted into the tenant's ingress queue, not yet
	// routed to a shard.
	SubmissionQueued
	// SubmissionAdmitted: installed on a shard and being scheduled.
	SubmissionAdmitted
	// SubmissionDone: the job completed and left the cluster.
	SubmissionDone
	// SubmissionWithdrawn: removed by the client (Withdraw) or by the
	// abandoned-client TTL before completing.
	SubmissionWithdrawn
	// SubmissionRejected: shed by the overload ladder; the job never ran.
	SubmissionRejected
)

func (s SubmissionState) String() string {
	switch s {
	case SubmissionQueued:
		return "queued"
	case SubmissionAdmitted:
		return "admitted"
	case SubmissionDone:
		return "done"
	case SubmissionWithdrawn:
		return "withdrawn"
	case SubmissionRejected:
		return "rejected"
	}
	return "unknown"
}

// SubmitArgs streams one job into the coordinator. Tput is the tenant's
// *declared* isolated throughput row over the cluster's accelerator types —
// a claim, validated for shape at the edge and later cross-checked against
// measured throughput by the quarantine validator.
type SubmitArgs struct {
	// Tenant names the submitting principal; quotas, queues, and trust are
	// all per tenant.
	Tenant string
	// Key is the client-chosen idempotency key, unique within the tenant.
	// Re-submitting an existing key returns the submission's current state
	// instead of creating a duplicate.
	Key string
	// Name labels the job (model name) for the lease plane and logs.
	Name string
	// TotalSteps is the training length; the lease plane retires the job
	// when measured progress reaches it.
	TotalSteps float64
	// ScaleFactor is the requested worker count (min 1).
	ScaleFactor int
	// Tput is the declared steps/sec per accelerator type (len == cluster
	// type count, finite, non-negative).
	Tput []float64
	// SLOClass orders submissions for the shedding ladder: under sustained
	// overload, class 0 is shed first, higher classes last.
	SLOClass int
}

// SubmitReply acknowledges an accepted (or deduped) submission.
type SubmitReply struct {
	// JobID is the coordinator-assigned job identity.
	JobID int
	State SubmissionState
}

// WithdrawArgs removes a submission by its idempotency key.
type WithdrawArgs struct {
	Tenant string
	Key    string
}

// WithdrawReply reports the submission's state after the withdrawal request
// (queued submissions withdraw immediately; admitted ones on the next round).
type WithdrawReply struct {
	State SubmissionState
}

// PollArgs asks for a submission's state. Polling is also the client's
// liveness signal: a tenant that stops polling past the abandoned-client TTL
// has its submissions withdrawn.
type PollArgs struct {
	Tenant string
	Key    string
}

// PollReply is the submission's current state.
type PollReply struct {
	JobID int
	State SubmissionState
	// Shard is the placement for admitted submissions (-1 otherwise).
	Shard int
	// Round is the coordinator's last sealed round, the clock retry hints
	// are denominated in.
	Round int64
}

// AdmissionConfig bounds the submission plane per tenant. The zero value
// resolves to the defaults below (withDefaults); AdmissionConfigFromEnv reads
// the GAVEL_SUBMIT_* knobs.
type AdmissionConfig struct {
	// MaxQueuePerTenant bounds a tenant's ingress queue; a Submit beyond it
	// is refused with CodeOverload and a retry-after hint (default 64).
	MaxQueuePerTenant int
	// MaxResidentPerTenant caps a tenant's admitted-and-running jobs;
	// excess submissions wait in the queue (0 = unlimited).
	MaxResidentPerTenant int
	// RatePerRound is the tenant's admission token-bucket refill per sealed
	// round; Burst is the bucket size (defaults: 0 = unrationed, bucket
	// starts full at Burst). Rounds, not wall clock, so admission is
	// deterministic and journal-replayable.
	RatePerRound float64
	Burst        float64
	// ShedQueueDepth is the global queued-submission high-water mark; a
	// queue above it after a drain counts the round as overloaded (default
	// 4 x MaxQueuePerTenant).
	ShedQueueDepth int
	// ShedAfterRounds is how many consecutive overloaded rounds are
	// tolerated before the ladder escalates from deferring to shedding —
	// rejecting queued submissions, lowest SLO class first (default 3).
	ShedAfterRounds int
	// QuarantineDivergence is the declared/measured throughput ratio above
	// which a tenant's round counts as divergent (default 2.0).
	QuarantineDivergence float64
	// QuarantineAfterRounds is how many consecutive divergent reviews a
	// tenant survives before being quarantined: its shard rows are clamped
	// to measured values and stay clamped (default 3).
	QuarantineAfterRounds int
	// MeasuredAlpha is the EWMA weight of the newest measured-throughput
	// sample (default 0.5).
	MeasuredAlpha float64
	// AbandonAfterRounds withdraws a tenant's submissions when it has not
	// submitted, polled, or withdrawn for this many rounds — the
	// crashed-client TTL, in rounds like the worker lease TTL is in round
	// lengths (0 = never).
	AbandonAfterRounds int
	// JobIDBase is the first coordinator-assigned job ID (default 1000000,
	// clear of driver-assigned synthetic batch IDs).
	JobIDBase int
}

// Admission defaults; see the field docs above.
const (
	defaultMaxQueuePerTenant = 64
	defaultShedAfterRounds   = 3
	defaultQuarantineDiv     = 2.0
	defaultQuarantineAfter   = 3
	defaultMeasuredAlpha     = 0.5
	defaultJobIDBase         = 1000000
)

// withDefaults resolves zero fields to the documented defaults.
func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.MaxQueuePerTenant <= 0 {
		c.MaxQueuePerTenant = defaultMaxQueuePerTenant
	}
	if c.Burst <= 0 {
		if c.RatePerRound > 0 {
			c.Burst = math.Max(2*c.RatePerRound, 1)
		} else {
			c.Burst = 1
		}
	}
	if c.ShedQueueDepth <= 0 {
		c.ShedQueueDepth = 4 * c.MaxQueuePerTenant
	}
	if c.ShedAfterRounds <= 0 {
		c.ShedAfterRounds = defaultShedAfterRounds
	}
	if c.QuarantineDivergence <= 0 {
		c.QuarantineDivergence = defaultQuarantineDiv
	}
	if c.QuarantineAfterRounds <= 0 {
		c.QuarantineAfterRounds = defaultQuarantineAfter
	}
	if c.MeasuredAlpha <= 0 || c.MeasuredAlpha > 1 {
		c.MeasuredAlpha = defaultMeasuredAlpha
	}
	if c.JobIDBase <= 0 {
		c.JobIDBase = defaultJobIDBase
	}
	return c
}

// AdmissionConfigFromEnv resolves the GAVEL_SUBMIT_* environment knobs over
// the defaults: QUEUE (per-tenant queue bound), RESIDENT (per-tenant resident
// cap), RATE / BURST (admission token bucket per round), SHED_DEPTH /
// SHED_AFTER (overload ladder), QUARANTINE_DIV / QUARANTINE_AFTER (trust
// validator), ALPHA (measured EWMA), ABANDON_AFTER (crashed-client TTL).
func AdmissionConfigFromEnv() AdmissionConfig {
	var c AdmissionConfig
	geti := func(key string, dst *int) {
		if v := os.Getenv(key); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n >= 0 {
				*dst = n
			}
		}
	}
	getf := func(key string, dst *float64) {
		if v := os.Getenv(key); v != "" {
			if f, err := strconv.ParseFloat(v, 64); err == nil && f >= 0 {
				*dst = f
			}
		}
	}
	geti("GAVEL_SUBMIT_QUEUE", &c.MaxQueuePerTenant)
	geti("GAVEL_SUBMIT_RESIDENT", &c.MaxResidentPerTenant)
	getf("GAVEL_SUBMIT_RATE", &c.RatePerRound)
	getf("GAVEL_SUBMIT_BURST", &c.Burst)
	geti("GAVEL_SUBMIT_SHED_DEPTH", &c.ShedQueueDepth)
	geti("GAVEL_SUBMIT_SHED_AFTER", &c.ShedAfterRounds)
	getf("GAVEL_SUBMIT_QUARANTINE_DIV", &c.QuarantineDivergence)
	geti("GAVEL_SUBMIT_QUARANTINE_AFTER", &c.QuarantineAfterRounds)
	getf("GAVEL_SUBMIT_ALPHA", &c.MeasuredAlpha)
	geti("GAVEL_SUBMIT_ABANDON_AFTER", &c.AbandonAfterRounds)
	return c.withDefaults()
}

// ValidateTput rejects a malformed declared-throughput vector at the edge:
// wrong length, NaN, infinite, or negative entries would otherwise corrupt
// the coordinator mirror and every LP downstream.
func ValidateTput(numTypes int, tput []float64) error {
	if len(tput) != numTypes {
		return Errorf(CodeBadRequest,
			"throughput vector has %d entries, cluster has %d accelerator types", len(tput), numTypes)
	}
	for j, v := range tput {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return Errorf(CodeBadRequest, "throughput[%d] = %v is not a finite non-negative rate", j, v)
		}
	}
	return nil
}

// retryAfterRe recovers the rounds hint from an overload error's message.
var retryAfterRe = regexp.MustCompile(`retry-after=(\d+)`)

// Overloadf builds a CodeOverload error carrying a machine-readable
// retry-after hint (in rounds) that survives crossing the wire as a string.
func Overloadf(retryAfter int, format string, args ...any) *Error {
	if retryAfter < 1 {
		retryAfter = 1
	}
	return Errorf(CodeOverload, "%s; retry-after=%d", fmt.Sprintf(format, args...), retryAfter)
}

// RetryAfter extracts the rounds hint from an overload error (0 when absent
// or the error is not an overload).
func RetryAfter(err error) int {
	e := ParseError(err)
	if e == nil || e.Code != CodeOverload {
		return 0
	}
	if m := retryAfterRe.FindStringSubmatch(e.Msg); m != nil {
		if n, err := strconv.Atoi(m[1]); err == nil {
			return n
		}
	}
	return 0
}

// ParseSubmitSpec parses the flat "key=value,..." submission form the
// gavel-submit client and tests speak, e.g.
//
//	tenant=acme,key=job-7,name=resnet50,steps=5000,sf=2,slo=1,tput=120;80;30
//
// Tput entries are semicolon-separated and must be finite and non-negative;
// unknown keys are errors. The inverse is SpecString, and
// FuzzParseSubmitSpec holds the round trip.
func ParseSubmitSpec(spec string) (SubmitArgs, error) {
	var a SubmitArgs
	a.ScaleFactor = 1
	if strings.TrimSpace(spec) == "" {
		return a, Errorf(CodeBadRequest, "empty submit spec")
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return a, Errorf(CodeBadRequest, "bad submit spec element %q (want key=value)", kv)
		}
		var err error
		switch k {
		case "tenant":
			a.Tenant = v
		case "key":
			a.Key = v
		case "name":
			a.Name = v
		case "steps":
			a.TotalSteps, err = strconv.ParseFloat(v, 64)
			if err == nil && (math.IsNaN(a.TotalSteps) || math.IsInf(a.TotalSteps, 0) || a.TotalSteps < 0) {
				err = fmt.Errorf("steps must be finite and non-negative")
			}
		case "sf":
			a.ScaleFactor, err = strconv.Atoi(v)
			if err == nil && a.ScaleFactor < 1 {
				err = fmt.Errorf("sf must be >= 1")
			}
		case "slo":
			a.SLOClass, err = strconv.Atoi(v)
			if err == nil && a.SLOClass < 0 {
				err = fmt.Errorf("slo must be >= 0")
			}
		case "tput":
			a.Tput = nil
			if v != "" {
				for _, f := range strings.Split(v, ";") {
					var x float64
					if x, err = strconv.ParseFloat(f, 64); err != nil {
						break
					}
					if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
						err = fmt.Errorf("tput entries must be finite and non-negative")
						break
					}
					a.Tput = append(a.Tput, x)
				}
			}
		default:
			return a, Errorf(CodeBadRequest, "unknown submit spec key %q", k)
		}
		if err != nil {
			return a, Errorf(CodeBadRequest, "bad value for %q: %v", k, err)
		}
	}
	if a.Tenant == "" || a.Key == "" {
		return a, Errorf(CodeBadRequest, "submit spec needs tenant= and key=")
	}
	if strings.ContainsAny(a.Tenant, ",=;") || strings.ContainsAny(a.Key, ",=;") {
		return a, Errorf(CodeBadRequest, "tenant and key must not contain ',', '=', or ';'")
	}
	if strings.ContainsAny(a.Name, ",=;") {
		return a, Errorf(CodeBadRequest, "name must not contain ',', '=', or ';'")
	}
	return a, nil
}

// SpecString renders the args back into ParseSubmitSpec's form.
func (a SubmitArgs) SpecString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tenant=%s,key=%s", a.Tenant, a.Key)
	if a.Name != "" {
		fmt.Fprintf(&b, ",name=%s", a.Name)
	}
	if a.TotalSteps != 0 {
		fmt.Fprintf(&b, ",steps=%s", strconv.FormatFloat(a.TotalSteps, 'g', -1, 64))
	}
	if a.ScaleFactor != 1 {
		fmt.Fprintf(&b, ",sf=%d", a.ScaleFactor)
	}
	if a.SLOClass != 0 {
		fmt.Fprintf(&b, ",slo=%d", a.SLOClass)
	}
	if len(a.Tput) > 0 {
		b.WriteString(",tput=")
		for i, v := range a.Tput {
			if i > 0 {
				b.WriteByte(';')
			}
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	return b.String()
}
