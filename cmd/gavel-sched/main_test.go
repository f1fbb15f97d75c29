package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"gavel/internal/rpc"
)

// logCapture is the daemon's log, readable while it is being written.
type logCapture struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *logCapture) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *logCapture) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// await polls the log for re's first submatch, failing the test after 30 s or
// as soon as the daemon has exited without printing it.
func (l *logCapture) await(t *testing.T, re string, exited <-chan error) string {
	t.Helper()
	rx := regexp.MustCompile(re)
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if m := rx.FindStringSubmatch(l.String()); m != nil {
			return m[len(m)-1]
		}
		select {
		case err := <-exited:
			t.Fatalf("daemon exited (%v) before logging %q:\n%s", err, re, l.String())
		default:
		}
	}
	t.Fatalf("daemon never logged %q:\n%s", re, l.String())
	return ""
}

// sealChecked is the lease plane's source as the daemon built it, checked at
// every lease that leaves the process: the round whose plan the job comes from
// must already be sealed in the journal file on disk. (The file, not
// svc.Round(): Service is round-loop-only and this runs on the lease plane's
// goroutines.)
type sealChecked struct {
	*planSource
	journal string

	mu       sync.Mutex
	checked  int
	failures []string
}

func (c *sealChecked) NextLease(worker int, accType, server string) []int {
	ids := c.planSource.NextLease(worker, accType, server)
	if len(ids) == 0 {
		return nil
	}
	c.planSource.mu.Lock()
	planned := c.planSource.round
	c.planSource.mu.Unlock()
	sealed, err := rpc.SealedRound(c.journal)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.checked++
	if err != nil || sealed < planned {
		c.failures = append(c.failures, fmt.Sprintf("job %d leased from round %d's plan with the journal sealed at %d (%v)",
			ids[0], planned, sealed, err))
	}
	return ids
}

// work is one lease client: it leases round by round and reports the rate it
// "measured", until the daemon closes the connection.
func work(addr, accType string, rate float64) {
	c, err := rpc.Dial(addr, rpc.RegisterArgs{AcceleratorType: accType, Server: accType})
	if err != nil {
		return
	}
	defer c.Close()
	for {
		lease, err := c.Lease()
		if err != nil {
			return
		}
		if !lease.Empty && c.Report(lease.JobIDs[0], rate) != nil {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// start runs the daemon in-process, with its log captured, and two lease
// clients dialed to whatever port its lease plane bound.
func start(t *testing.T, ctx context.Context, cfg config) (*logCapture, <-chan error) {
	t.Helper()
	out := &logCapture{}
	log.SetOutput(out)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	exited := make(chan error, 1)
	go func() { exited <- run(ctx, cfg) }()
	addr := out.await(t, `lease plane on (\S+),`, exited)
	go work(addr, "v100", 100)
	go work(addr, "p100", 75)
	return out, exited
}

func testConfig() config {
	return config{
		listen: "127.0.0.1:0", jobs: 4, round: 0.05, steps: 100,
		policy: "max_min_fairness", gpus: "v100:4,p100:4,k80:8",
		rebalance: 10, realloc: 4, snapshot: 1, drainRounds: 3,
	}
}

// TestCoordinatorKilledAndResumed is the deployment in one process:
// coordinator, two shard servers on loopback sockets, two lease clients, a
// journal. The coordinator is stopped mid-batch and run again over the same
// journal and the surviving shards: it must resume at the round after the
// last sealed one and finish the batch, and across both runs no lease may
// leave the process before the round it was planned in is sealed on disk.
func TestCoordinatorKilledAndResumed(t *testing.T) {
	var addrs []string
	for i := 0; i < 2; i++ {
		srv := rpc.NewShardServer()
		addr, err := srv.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, addr)
	}
	cfg := testConfig()
	cfg.shards = strings.Join(addrs, ",")
	cfg.journal = filepath.Join(t.TempDir(), "journal.wal")
	check := &sealChecked{journal: cfg.journal}
	cfg.leases = func(p *planSource) rpc.LeaseSource {
		check.planSource = p
		return check
	}

	ctx, kill := context.WithCancel(context.Background())
	first, exited := start(t, ctx, cfg)
	first.await(t, `gavel-sched: (round 3),`, exited)
	kill()
	if err := <-exited; !errors.Is(err, context.Canceled) {
		t.Fatalf("stopped coordinator returned %v, want context.Canceled:\n%s", err, first)
	}
	sealed, err := rpc.SealedRound(cfg.journal)
	if err != nil || sealed < 3 {
		t.Fatalf("journal sealed at round %d after the stop (%v)", sealed, err)
	}

	second, exited := start(t, context.Background(), cfg)
	if err := <-exited; err != nil {
		t.Fatalf("resumed coordinator: %v\n%s", err, second)
	}
	got := second.String()
	for _, want := range []string{
		fmt.Sprintf("resumed from journal (round %d,", sealed),
		fmt.Sprintf("gavel-sched: round %d, 0/4 jobs complete", sealed),
		"already on shard",
		"shard 0: ", "shard 1: ", "remapped",
		"batch complete",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("resumed coordinator's log lacks %q", want)
		}
	}
	if final, err := rpc.SealedRound(cfg.journal); err != nil || final <= sealed {
		t.Errorf("journal sealed at round %d after the resumed run, was %d before it (%v)", final, sealed, err)
	}
	if t.Failed() {
		t.Logf("resumed coordinator's log:\n%s", got)
	}
	check.mu.Lock()
	defer check.mu.Unlock()
	if check.checked == 0 {
		t.Fatal("no lease was ever checked against the journal")
	}
	for _, f := range check.failures {
		t.Error(f)
	}
}

// TestNoShardsRunsOneInMemoryShard: without -shards the daemon is the same
// coordinator over one in-memory shard — a Gavel policy behind every lease —
// and the submission plane works there too.
func TestNoShardsRunsOneInMemoryShard(t *testing.T) {
	cfg := testConfig()
	cfg.jobs = 2
	cfg.submitListen = "127.0.0.1:0"
	cfg.drainRounds = 1
	out, exited := start(t, context.Background(), cfg)
	if err := <-exited; err != nil {
		t.Fatalf("daemon: %v\n%s", err, out)
	}
	for _, want := range []string{"1 shards, policy max_min_fairness", "submission plane on", "shard 0: 2 admitted", "batch complete"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("log lacks %q:\n%s", want, out)
		}
	}
}

// TestNoDoubleLeaseAcrossWorkers: the lease plane leases only what planSource
// queued, over a real socket. With two same-type workers and a job queued
// once, the job is leased once; set for the next round replaces the queue,
// dropping whatever the last round left unleased.
func TestNoDoubleLeaseAcrossWorkers(t *testing.T) {
	plan := &planSource{}
	sched := rpc.NewScheduler(1, plan)
	addr, err := sched.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	var workers []*rpc.Client
	for i := 0; i < 2; i++ {
		c, err := rpc.Dial(addr, rpc.RegisterArgs{AcceleratorType: "v100"})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		workers = append(workers, c)
	}
	// leases has each worker ask in turn and returns what it got (-1 = idle).
	leases := func(ws ...*rpc.Client) []int {
		t.Helper()
		var got []int
		for _, c := range ws {
			l, err := c.Lease()
			if err != nil {
				t.Fatal(err)
			}
			if l.Empty {
				got = append(got, -1)
			} else {
				got = append(got, l.JobIDs[0])
			}
		}
		return got
	}
	w0, w1 := workers[0], workers[1]

	plan.set(1, map[string][]int{"v100": {7}})
	if got := leases(w0, w1, w0); fmt.Sprint(got) != "[7 -1 -1]" {
		t.Fatalf("job queued once, leases %v, want [7 -1 -1]", got)
	}
	plan.set(2, map[string][]int{"v100": {9, 3}})
	if got := leases(w0); fmt.Sprint(got) != "[9]" {
		t.Fatalf("round 2 lease %v, want [9]", got)
	}
	plan.set(3, map[string][]int{"v100": {4}})
	if got := leases(w1, w0); fmt.Sprint(got) != "[4 -1]" {
		t.Fatalf("round 3 leases %v, want [4 -1] (round 2's job 3 dropped)", got)
	}
}

// TestRefusesUnfinishableFlags: a round that is not finite and positive never
// waits, a negative job count never completes, and a non-finite step count is
// never reached. Each is refused before a shard is dialed or the journal
// opened, so no round is sealed.
func TestRefusesUnfinishableFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*config)
	}{
		{"round 0", func(c *config) { c.round = 0 }},
		{"round negative", func(c *config) { c.round = -1 }},
		{"round NaN", func(c *config) { c.round = math.NaN() }},
		{"round +Inf", func(c *config) { c.round = math.Inf(1) }},
		{"jobs -1", func(c *config) { c.jobs = -1 }},
		{"steps NaN", func(c *config) { c.steps = math.NaN() }},
		{"steps +Inf", func(c *config) { c.steps = math.Inf(1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.journal = filepath.Join(t.TempDir(), "journal.wal")
			cfg.shards = "127.0.0.1:1" // dialing it would fail differently
			tc.set(&cfg)
			out := &logCapture{}
			log.SetOutput(out)
			defer log.SetOutput(os.Stderr)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			err := run(ctx, cfg)
			if err == nil || !strings.Contains(err.Error(), "want") {
				t.Fatalf("run returned %v, want the flag refused", err)
			}
			if _, serr := os.Stat(cfg.journal); !os.IsNotExist(serr) {
				t.Errorf("journal touched (%v)", serr)
			}
			if strings.Contains(out.String(), "round") {
				t.Errorf("a round ran:\n%s", out)
			}
		})
	}
}

// TestZeroStepsFinish: -steps 0 (or below) is accepted because it can finish:
// a job completes at its first progress report.
func TestZeroStepsFinish(t *testing.T) {
	cfg := testConfig()
	cfg.jobs, cfg.steps = 2, 0
	out, exited := start(t, context.Background(), cfg)
	if err := <-exited; err != nil || !strings.Contains(out.String(), "batch complete") {
		t.Fatalf("daemon: %v\n%s", err, out)
	}
}
