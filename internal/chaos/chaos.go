// Package chaos is the fault-injection plane of the cluster service: a
// deterministic rpc.Intercept hook that subjects the coordinator <-> shard
// control plane to seeded drops, delays, duplicates, partitions, and crashes.
//
// The hook sits on an rpc.ShardClient — below the retry layer, above the
// wire — so every injected fault exercises exactly the production error path:
// a dropped call surfaces as CodeUnavailable (transient, retried), a crashed
// shard as CodeShardDown (escalates to Recover), a duplicate re-sends the
// call against the daemon's idempotent surface. Faults are drawn from a
// per-shard rand.Rand seeded from Config.Seed, and every call draws the same
// number of variates whether or not a fault fires, so a fixed seed yields an
// identical fault schedule across runs — the property the chaos tests and the
// CI chaos-smoke job assert. Schedule() returns the injected-fault log for
// exactly that comparison.
package chaos

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"gavel/internal/obs"
	"gavel/internal/rpc"
)

// Config parameterizes one fault-injection schedule. The zero value injects
// nothing (Enabled reports false).
type Config struct {
	// Seed derives every shard's fault stream (shard k streams from
	// Seed*31+k). Two runs with the same Seed, Config, and call sequence see
	// identical faults.
	Seed int64
	// Drop is the probability a call is lost in transit: the daemon never
	// sees it and the caller gets CodeUnavailable.
	Drop float64
	// Dup is the probability an idempotent call is delivered twice (the
	// at-least-once case a lossy network produces via retransmission).
	// Extract, the one non-idempotent call, is never duplicated.
	Dup float64
	// Delay is the probability a call is delayed by MaxDelay before delivery.
	Delay float64
	// MaxDelay is the injected delay (default 10ms when Delay > 0).
	MaxDelay time.Duration
	// PartitionStart / PartitionCalls open a network partition window: calls
	// [PartitionStart, PartitionStart+PartitionCalls) on the shard, counted
	// per shard, all fail with CodeUnavailable. Zero PartitionCalls disables.
	PartitionStart int
	PartitionCalls int
	// CrashAfter, when positive, kills the shard's transport permanently
	// after that many calls: every later call fails with CodeShardDown,
	// exactly what a died daemon process looks like to the coordinator.
	CrashAfter int
}

// Enabled reports whether the config injects any fault at all.
func (c Config) Enabled() bool {
	return c.Drop > 0 || c.Dup > 0 || c.Delay > 0 || c.PartitionCalls > 0 || c.CrashAfter > 0
}

// ParseSpec parses the comma-separated knob spec used by flags and CI, e.g.
// "seed=42,drop=0.05,dup=0.01,delay=0.1,maxdelay=20ms,partition=40+10,crash=200".
// Unknown keys are errors; an empty spec is the zero Config.
func ParseSpec(spec string) (Config, error) {
	var c Config
	if strings.TrimSpace(spec) == "" {
		return c, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return c, fmt.Errorf("chaos: bad spec element %q (want key=value)", kv)
		}
		var err error
		switch k {
		case "seed":
			c.Seed, err = strconv.ParseInt(v, 10, 64)
		case "drop":
			c.Drop, err = strconv.ParseFloat(v, 64)
		case "dup":
			c.Dup, err = strconv.ParseFloat(v, 64)
		case "delay":
			c.Delay, err = strconv.ParseFloat(v, 64)
		case "maxdelay":
			c.MaxDelay, err = time.ParseDuration(v)
		case "partition":
			start, calls, ok := strings.Cut(v, "+")
			if !ok {
				return c, fmt.Errorf("chaos: partition wants start+calls, got %q", v)
			}
			if c.PartitionStart, err = strconv.Atoi(start); err == nil {
				c.PartitionCalls, err = strconv.Atoi(calls)
			}
		case "crash":
			c.CrashAfter, err = strconv.Atoi(v)
		default:
			return c, fmt.Errorf("chaos: unknown spec key %q", k)
		}
		if err != nil {
			return c, fmt.Errorf("chaos: bad value for %q: %v", k, err)
		}
	}
	for _, p := range []float64{c.Drop, c.Dup, c.Delay} {
		if !(p >= 0 && p <= 1) { // also refuses NaN
			return c, fmt.Errorf("chaos: probability %v outside [0, 1] in %q", p, spec)
		}
	}
	if c.MaxDelay < 0 || c.PartitionStart < 0 || c.PartitionCalls < 0 || c.CrashAfter < 0 {
		return c, fmt.Errorf("chaos: negative count or duration in %q", spec)
	}
	return c, nil
}

// FaultKind labels one injected fault in the schedule log.
type FaultKind string

const (
	FaultDrop      FaultKind = "drop"
	FaultDup       FaultKind = "dup"
	FaultDelay     FaultKind = "delay"
	FaultPartition FaultKind = "partition"
	FaultCrash     FaultKind = "crash"
)

// Event is one injected fault: which call (1-based, per shard), which method,
// which fault.
type Event struct {
	Call   int
	Method string
	Kind   FaultKind
}

// Transport is one shard's fault schedule: the rpc.Intercept hook Stack
// installs below rpc.WithRetry, so injected transients exercise the retry
// path.
type Transport struct {
	cfg   Config
	shard int

	mu      sync.Mutex
	rng     *rand.Rand
	calls   int
	crashed bool
	events  []Event

	// faults counts injected faults by kind (gavel_chaos_faults_total, when
	// Stack's policy carries Obs). The counter bumps where the event log
	// appends — under the mutex, after the variate draws — so enabling it
	// cannot shift the rand stream or the schedule.
	faults *obs.CounterVec
}

// Stack layers the whole client-side fault plane over one shard client: the
// chaos hook at the bottom, so every injected transient exercises the
// production retry/degrade/recover path of the retry loop above it, and
// pol.Obs on both — retry outcome counters above, injected-fault counters
// below, neither touching a rand stream. inner should carry no retries or Obs
// of its own, or every call is counted twice. The Transport is nil when cfg
// injects nothing; a policy with neither retries nor Obs adds no retry layer.
func Stack(inner rpc.ShardClient, cfg Config, shard int, pol rpc.CallPolicy) (rpc.ShardClient, *Transport) {
	if !cfg.Enabled() {
		return rpc.WithRetry(inner, pol), nil
	}
	if cfg.Delay > 0 && cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 10 * time.Millisecond
	}
	t := &Transport{cfg: cfg, shard: shard, rng: rand.New(rand.NewSource(cfg.Seed*31 + int64(shard)))}
	if pol.Obs != nil {
		t.faults = pol.Obs.Registry().CounterVec("gavel_chaos_faults_total", "Faults injected by the chaos transport, by kind.", "kind")
		for _, k := range []FaultKind{FaultDrop, FaultDup, FaultDelay, FaultPartition, FaultCrash} {
			t.faults.With(string(k))
		}
	}
	return rpc.WithRetry(rpc.Intercept(inner, t.do), pol), t
}

// inject logs one fault in the schedule and its counter (callers hold mu).
func (t *Transport) inject(e Event) {
	t.events = append(t.events, e)
	t.faults.With(string(e.Kind)).Inc()
}

// Schedule returns a copy of the injected-fault log so far. Two runs with the
// same seed and call sequence return equal schedules.
func (t *Transport) Schedule() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// ScheduleString renders the schedule one fault per line — the form the
// determinism tests compare.
func (t *Transport) ScheduleString() string {
	var b strings.Builder
	for _, e := range t.Schedule() {
		fmt.Fprintf(&b, "%d %s %s\n", e.Call, e.Method, e.Kind)
	}
	return b.String()
}

// plan decides this call's faults under the lock, always drawing the same
// three variates so the stream stays aligned across runs regardless of which
// faults fire. The returned closures run outside the lock.
type plan struct {
	err   error // non-nil: fail without delivering
	dup   bool
	delay time.Duration
}

func (t *Transport) plan(method string, idempotent bool) plan {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.calls++
	call := t.calls
	if t.crashed {
		return plan{err: rpc.Errorf(rpc.CodeShardDown, "chaos: shard %d crashed", t.shard)}
	}
	if t.cfg.CrashAfter > 0 && call > t.cfg.CrashAfter {
		t.crashed = true
		t.inject(Event{Call: call, Method: method, Kind: FaultCrash})
		return plan{err: rpc.Errorf(rpc.CodeShardDown, "chaos: shard %d crashed", t.shard)}
	}
	// Draw all three variates unconditionally: the stream must not depend on
	// which faults fire, or one differing draw would desynchronize the rest
	// of the schedule.
	dropDraw := t.rng.Float64()
	dupDraw := t.rng.Float64()
	delayDraw := t.rng.Float64()
	if t.cfg.PartitionCalls > 0 && call >= t.cfg.PartitionStart && call < t.cfg.PartitionStart+t.cfg.PartitionCalls {
		t.inject(Event{Call: call, Method: method, Kind: FaultPartition})
		return plan{err: rpc.Errorf(rpc.CodeUnavailable, "chaos: shard %d partitioned (call %d)", t.shard, call)}
	}
	if dropDraw < t.cfg.Drop {
		t.inject(Event{Call: call, Method: method, Kind: FaultDrop})
		return plan{err: rpc.Errorf(rpc.CodeUnavailable, "chaos: call %d to shard %d dropped", call, t.shard)}
	}
	var p plan
	if idempotent && dupDraw < t.cfg.Dup {
		t.inject(Event{Call: call, Method: method, Kind: FaultDup})
		p.dup = true
	}
	if delayDraw < t.cfg.Delay {
		t.inject(Event{Call: call, Method: method, Kind: FaultDelay})
		p.delay = t.cfg.MaxDelay
	}
	return p
}

// do runs one call through the fault plan. Hello and Configure are exempt:
// they are setup-plane, and failing them would fail construction rather than
// exercise the round plane.
func (t *Transport) do(method string, op func() error) error {
	if method == "Hello" || method == "Configure" {
		return op()
	}
	p := t.plan(method, rpc.Idempotent(method))
	if p.err != nil {
		return p.err
	}
	if p.delay > 0 {
		time.Sleep(p.delay)
	}
	if p.dup {
		if err := op(); err != nil {
			return err
		}
	}
	return op()
}
