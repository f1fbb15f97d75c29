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
// exception is Extract (it removes state and returns it), which is never
// retried — the Service's migrate path has its own reinstall fallback.

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

// CallPolicy bundles the per-call fault knobs of a shard client.
type CallPolicy struct {
	// Timeout is the per-call deadline (0 disables; net transport only — the
	// in-memory client runs the handler inline and cannot be interrupted).
	Timeout time.Duration
	// Retries is how many times a transient failure (CodeTimeout,
	// CodeUnavailable) is re-sent before the error surfaces to the caller.
	Retries int
	// Backoff is the first retry's sleep; each further retry doubles it up to
	// MaxBackoff, jittered to [50%, 100%] to avoid synchronized re-sends.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// JitterSeed makes the backoff jitter reproducible (0 seeds from the
	// policy's first use deterministically — the zero value is still
	// deterministic, which the chaos tests rely on).
	JitterSeed int64
	// Obs, when non-nil, counts every call outcome
	// (gavel_rpc_calls_total{method,outcome}) and every re-send
	// (gavel_rpc_retries_total{method}), and records one "rpc.retry" span
	// per backoff sleep. Metrics never affect the retry schedule or the
	// jitter stream, so enabling them cannot perturb determinism.
	Obs *obs.Plane
}

// IsZero reports whether the policy disables both deadlines and retries.
func (p CallPolicy) IsZero() bool {
	return p.Timeout == 0 && p.Retries == 0
}

// CallPolicyFromEnv resolves the GAVEL_RPC_TIMEOUT / GAVEL_RPC_RETRIES /
// GAVEL_RPC_BACKOFF environment knobs. Unset values take the defaults
// (2m deadline, 2 retries, 25ms base backoff); GAVEL_RPC_TIMEOUT=0 disables
// the deadline, GAVEL_RPC_RETRIES=0 disables retries.
func CallPolicyFromEnv() CallPolicy {
	p := CallPolicy{
		Timeout:    DefaultCallTimeout,
		Retries:    2,
		Backoff:    25 * time.Millisecond,
		MaxBackoff: time.Second,
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

// retryClient wraps any ShardClient with the CallPolicy's retry loop. The
// deadline half of the policy lives in the transport (netShardClient), below
// this wrapper, so a retried call gets a fresh deadline each attempt.
type retryClient struct {
	inner ShardClient
	pol   CallPolicy
	rng   *rand.Rand
	sleep func(time.Duration) // injectable for tests

	tr      *obs.Tracer
	calls   *obs.CounterVec // method, outcome
	retries *obs.CounterVec // method
}

// WithRetry layers the policy's retry loop over a shard client. A zero
// policy returns the client unchanged. Retries re-send on transient codes
// only (IsTransient); every other error — including CodeShardDown — surfaces
// immediately. Extract and Close are never retried.
func WithRetry(c ShardClient, pol CallPolicy) ShardClient {
	if pol.Retries <= 0 && pol.Obs == nil {
		return c
	}
	if pol.Backoff <= 0 {
		pol.Backoff = 25 * time.Millisecond
	}
	if pol.MaxBackoff < pol.Backoff {
		pol.MaxBackoff = pol.Backoff
	}
	rc := &retryClient{
		inner: c,
		pol:   pol,
		rng:   rand.New(rand.NewSource(pol.JitterSeed ^ 0x67617665)), // "gave"
		sleep: time.Sleep,
	}
	if pol.Obs != nil {
		reg := pol.Obs.Registry()
		rc.tr = pol.Obs.Tracer()
		rc.calls = reg.CounterVec("gavel_rpc_calls_total", "Control-plane calls by method and outcome.", "method", "outcome")
		rc.retries = reg.CounterVec("gavel_rpc_retries_total", "Transient-failure re-sends by method.", "method")
		// Pre-register the retry children CI greps for, so the series
		// exists at zero before the first fault.
		for _, m := range []string{"Allocate", "AssignRound", "Install", "Remove", "Observe", "ObserveJob", "Snapshot", "Status", "Ping"} {
			rc.retries.With(m)
		}
	}
	return rc
}

// retry runs op up to 1+Retries times, backing off with jitter between
// transient failures.
func (c *retryClient) retry(method string, op func() error) error {
	backoff := c.pol.Backoff
	var err error
	for attempt := 0; ; attempt++ {
		err = op()
		if err == nil {
			c.calls.With(method, "ok").Inc()
			return nil
		}
		if !IsTransient(CodeOf(err)) || attempt >= c.pol.Retries {
			c.calls.With(method, "error").Inc()
			return err
		}
		c.calls.With(method, "transient").Inc()
		c.retries.With(method).Inc()
		d := backoff/2 + time.Duration(c.rng.Int63n(int64(backoff/2)+1))
		sp := c.tr.Begin("", "rpc.retry").Attr("method", method).
			AttrInt("attempt", int64(attempt+1)).AttrInt("backoff_ms", d.Milliseconds())
		c.sleep(d)
		sp.End(err)
		if backoff *= 2; backoff > c.pol.MaxBackoff {
			backoff = c.pol.MaxBackoff
		}
	}
}

func (c *retryClient) Hello(args HelloArgs) (HelloReply, error) {
	var reply HelloReply
	err := c.retry("Hello", func() error {
		var e error
		reply, e = c.inner.Hello(args)
		return e
	})
	return reply, err
}

func (c *retryClient) Configure(cfg ShardConfig) error {
	return c.retry("Configure", func() error { return c.inner.Configure(cfg) })
}

func (c *retryClient) Install(args InstallArgs) error {
	return c.retry("Install", func() error { return c.inner.Install(args) })
}

func (c *retryClient) Remove(args RemoveArgs) error {
	return c.retry("Remove", func() error { return c.inner.Remove(args) })
}

// Extract is deliberately not retried: it is the one non-idempotent call on
// the surface (a lost reply leaves the job extracted daemon-side), and the
// Service's migrate path owns the recovery of that ambiguity.
func (c *retryClient) Extract(args ExtractArgs) (ExtractReply, error) {
	return c.inner.Extract(args)
}

func (c *retryClient) Allocate(args AllocateArgs) (AllocateReply, error) {
	var reply AllocateReply
	err := c.retry("Allocate", func() error {
		var e error
		reply, e = c.inner.Allocate(args)
		return e
	})
	return reply, err
}

func (c *retryClient) AssignRound(args AssignRoundArgs) (AssignRoundReply, error) {
	var reply AssignRoundReply
	err := c.retry("AssignRound", func() error {
		var e error
		reply, e = c.inner.AssignRound(args)
		return e
	})
	return reply, err
}

func (c *retryClient) Observe(args ObserveArgs) error {
	return c.retry("Observe", func() error { return c.inner.Observe(args) })
}

func (c *retryClient) ObserveJob(args ObserveJobArgs) error {
	return c.retry("ObserveJob", func() error { return c.inner.ObserveJob(args) })
}

func (c *retryClient) Snapshot() (SnapshotReply, error) {
	var reply SnapshotReply
	err := c.retry("Snapshot", func() error {
		var e error
		reply, e = c.inner.Snapshot()
		return e
	})
	return reply, err
}

func (c *retryClient) Status() (ShardStatus, error) {
	var reply ShardStatus
	err := c.retry("Status", func() error {
		var e error
		reply, e = c.inner.Status()
		return e
	})
	return reply, err
}

func (c *retryClient) Ping() error {
	return c.retry("Ping", func() error { return c.inner.Ping() })
}

func (c *retryClient) Close() error { return c.inner.Close() }
