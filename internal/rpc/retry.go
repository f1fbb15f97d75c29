package rpc

// This file is the client-side fault policy of the control plane: per-call
// deadlines (a hung daemon must not block the round fan-out forever) and
// retry with jittered exponential backoff for transient failures. Both are
// typed configuration: resolve a CallPolicy once at startup
// (CallPolicyFromEnv, then flags) and thread it through DialShardWith or
// WithRetry, instead of ad-hoc getenv reads at call sites.
//
// Retries are safe because the shard surface is idempotent at-least-once:
// Install/Remove no-op on repeats, Allocate/AssignRound dedup by round
// number, Observe overwrites, and the read-only calls are free. The one
// exception is Extract (see Idempotent), which is never retried — the
// Service's migrate path has its own reinstall fallback.

import (
	"math/rand"
	"os"
	"strconv"
	"time"

	"gavel/internal/obs"
)

// DefaultCallTimeout bounds one control-plane call when GAVEL_RPC_TIMEOUT is
// unset. Rounds are seconds-to-minutes; two minutes distinguishes "slow
// solve" from "hung daemon" with a wide margin.
const DefaultCallTimeout = 2 * time.Minute

// CallPolicy bundles the per-call fault knobs of a control-plane client.
type CallPolicy struct {
	// Timeout is the per-call deadline (0 disables; net transport only — the
	// in-memory client runs the handler inline and cannot be interrupted).
	Timeout time.Duration
	// Retries is how many times a transient failure (CodeTimeout,
	// CodeUnavailable) is re-sent before the error surfaces to the caller.
	Retries int
	// Backoff is the first retry's sleep; each further retry doubles it up to
	// max(1s, Backoff), jittered to [50%, 100%] to avoid synchronized
	// re-sends. The jitter moves only sleep lengths, never a result.
	Backoff time.Duration
	// Obs, when non-nil, counts every call outcome
	// (gavel_rpc_calls_total{method,outcome}) and every re-send
	// (gavel_rpc_retries_total{method}), and records one "rpc.retry" span
	// per backoff sleep. Metrics never affect the retry schedule.
	Obs *obs.Plane
}

// CallPolicyFromEnv resolves the GAVEL_RPC_TIMEOUT / GAVEL_RPC_RETRIES /
// GAVEL_RPC_BACKOFF environment knobs. Unset values take the defaults
// (2m deadline, 2 retries, 25ms base backoff); GAVEL_RPC_TIMEOUT=0 disables
// the deadline, GAVEL_RPC_RETRIES=0 disables retries.
func CallPolicyFromEnv() CallPolicy {
	p := CallPolicy{
		Timeout: DefaultCallTimeout,
		Retries: 2,
		Backoff: 25 * time.Millisecond,
	}
	if v := os.Getenv("GAVEL_RPC_TIMEOUT"); v != "" {
		if d, err := time.ParseDuration(v); err == nil && d >= 0 {
			p.Timeout = d
		} else if n, err := strconv.Atoi(v); err == nil && n >= 0 {
			p.Timeout = time.Duration(n) * time.Second
		}
	}
	if v := os.Getenv("GAVEL_RPC_RETRIES"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 {
			p.Retries = n
		}
	}
	if v := os.Getenv("GAVEL_RPC_BACKOFF"); v != "" {
		if d, err := time.ParseDuration(v); err == nil && d > 0 {
			p.Backoff = d
		}
	}
	return p
}

// WithRetry layers the policy's retry loop over a shard client. A policy
// with neither retries nor Obs returns the client unchanged. The deadline
// half of the policy lives in the transport below (netShardClient), so a
// retried call gets a fresh deadline each attempt.
func WithRetry(c ShardClient, pol CallPolicy) ShardClient {
	if pol.Retries <= 0 && pol.Obs == nil {
		return c
	}
	return Intercept(c, newRetrier(pol).do)
}

// retrier is the control plane's one retry loop, shared by WithRetry's shard
// clients and the SubmitClient.
type retrier struct {
	pol     CallPolicy
	tr      *obs.Tracer
	calls   *obs.CounterVec // method, outcome
	retries *obs.CounterVec // method
}

func newRetrier(pol CallPolicy) *retrier {
	if pol.Backoff <= 0 {
		pol.Backoff = 25 * time.Millisecond
	}
	r := &retrier{pol: pol}
	if pol.Obs != nil {
		reg := pol.Obs.Registry()
		r.tr = pol.Obs.Tracer()
		r.calls = reg.CounterVec("gavel_rpc_calls_total", "Control-plane calls by method and outcome.", "method", "outcome")
		r.retries = reg.CounterVec("gavel_rpc_retries_total", "Transient-failure re-sends by method.", "method")
		// Pre-register the retry children CI greps for, so the series
		// exists at zero before the first fault.
		for _, m := range []string{"Allocate", "AssignRound", "Install", "Remove", "Observe", "ObserveJob", "Snapshot", "Status", "Ping"} {
			r.retries.With(m)
		}
	}
	return r
}

// do runs op up to 1+Retries times, backing off with jitter between
// transient failures. Only transient codes (IsTransient) are re-sent; every
// other error — including CodeShardDown — surfaces at once. A method that is
// not Idempotent runs exactly once, outside the loop and its counters.
func (r *retrier) do(method string, op func() error) error {
	if !Idempotent(method) {
		return op()
	}
	backoff, maxBackoff := r.pol.Backoff, max(time.Second, r.pol.Backoff)
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil {
			r.calls.With(method, "ok").Inc()
			return nil
		}
		if !IsTransient(CodeOf(err)) || attempt >= r.pol.Retries {
			r.calls.With(method, "error").Inc()
			return err
		}
		r.calls.With(method, "transient").Inc()
		r.retries.With(method).Inc()
		d := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
		sp := r.tr.Begin("", "rpc.retry").Attr("method", method).
			AttrInt("attempt", int64(attempt+1)).AttrInt("backoff_ms", d.Milliseconds())
		time.Sleep(d)
		sp.End(err)
		backoff = min(2*backoff, maxBackoff)
	}
}
