package main

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gavel/internal/rpc"
)

// planned leases job 7 to every worker, every round.
type planned struct{}

func (planned) NextLease(int, string, string) []int { return []int{7} }

// TestWorkerRunsPlannedLease drives run against an in-process lease plane:
// the worker registers, runs the planned job, reports a finite rate,
// checkpoints under its -ckpt directory when the first (unrenewed) lease
// ends, and returns context.Canceled once stopped.
func TestWorkerRunsPlannedLease(t *testing.T) {
	sched := rpc.NewScheduler(0.05, planned{})
	sched.Submit(rpc.JobSpec{JobID: 7, TotalSteps: 1e9})
	addr, err := sched.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()

	cfg := config{scheduler: addr, accType: "v100", server: "s0", ckptDir: t.TempDir(), stepsPerSec: 2000}
	ctx, stop := context.WithCancel(context.Background())
	exited := make(chan error, 1)
	go func() { exited <- run(ctx, cfg) }()

	ckpt := filepath.Join(cfg.ckptDir, "gavel-job-7.ckpt")
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		_, statErr := os.Stat(ckpt)
		if done, _ := sched.Steps(7); statErr == nil && done > 0 {
			break
		}
		select {
		case err := <-exited:
			t.Fatalf("worker exited early: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint and no progress after 30 s:\n%s", sched.StatusText())
		}
	}
	if !strings.Contains(sched.StatusText(), "worker 0  type v100  server s0") {
		t.Errorf("worker not registered:\n%s", sched.StatusText())
	}
	if rate := sched.Measured(7)["v100"]; !(rate > 0) || math.IsInf(rate, 1) {
		t.Errorf("measured rate %v, want finite and positive", rate)
	}

	stop()
	select {
	case err := <-exited:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("stopped worker returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker did not stop after cancel")
	}
}
