package rpc

import (
	"math"
	"testing"
)

func startScheduler(t *testing.T, src LeaseSource) (*Scheduler, string) {
	t.Helper()
	s := NewScheduler(1, src) // 1-second rounds keep tests fast
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr
}

func TestRegisterAndLease(t *testing.T) {
	s, addr := startScheduler(t, fixedSource{0: {1}})
	s.Submit(JobSpec{JobID: 1, TotalSteps: 100})

	c, err := Dial(addr, RegisterArgs{AcceleratorType: "v100", Server: "srv0"})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	lease, err := c.Lease()
	if err != nil {
		t.Fatalf("Lease: %v", err)
	}
	if lease.Empty || len(lease.JobIDs) != 1 || lease.JobIDs[0] != 1 {
		t.Fatalf("lease = %+v, want job 1", lease)
	}
	// Second lease immediately: the plan gives the worker the same job, so
	// the lease is renewed.
	lease2, err := c.Lease()
	if err != nil {
		t.Fatalf("Lease 2: %v", err)
	}
	if !lease2.Renewed {
		t.Fatalf("lease not renewed: %+v", lease2)
	}
}

func TestReportDrivesCompletion(t *testing.T) {
	s, addr := startScheduler(t, fixedSource{0: {3}})
	s.Submit(JobSpec{JobID: 3, TotalSteps: 50})

	c, err := Dial(addr, RegisterArgs{AcceleratorType: "v100"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Lease(); err != nil {
		t.Fatal(err)
	}
	// 60 steps/sec over a 1-second round completes the 50-step job.
	if err := c.Report(3, 60); err != nil {
		t.Fatalf("Report: %v", err)
	}
	if !s.JobDone(3) {
		t.Fatal("job should be complete")
	}
	if done, total := s.Steps(3); done != 60 || total != 50 {
		t.Fatalf("steps = %v/%v, want 60/50", done, total)
	}
	if got := s.Measured(3)["v100"]; got != 60 {
		t.Fatalf("measured throughput = %v, want 60", got)
	}
}

// TestReportRejectsInvalidRate: a NaN, infinite or negative rate is refused
// with CodeBadRequest over a real socket and leaves the job's progress,
// completion and measured rate as they were — +Inf used to complete any job
// at once, NaN to strand it, a negative rate to move it backwards.
func TestReportRejectsInvalidRate(t *testing.T) {
	s, addr := startScheduler(t, fixedSource{0: {3}})
	s.Submit(JobSpec{JobID: 3, TotalSteps: 50})

	c, err := Dial(addr, RegisterArgs{AcceleratorType: "v100"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Lease(); err != nil {
		t.Fatal(err)
	}
	if err := c.Report(3, 10); err != nil {
		t.Fatalf("Report: %v", err)
	}
	for _, rate := range []float64{math.NaN(), math.Inf(1), -1} {
		if err := c.Report(3, rate); CodeOf(err) != CodeBadRequest {
			t.Errorf("Report(%v): err = %v (code %v), want CodeBadRequest", rate, err, CodeOf(err))
		}
		if done, total := s.Steps(3); done != 10 || total != 50 || s.JobDone(3) {
			t.Fatalf("after Report(%v): steps %v/%v, done %v; want 10/50, not done", rate, done, total, s.JobDone(3))
		}
		if got := s.Measured(3)["v100"]; got != 10 {
			t.Fatalf("after Report(%v): measured %v, want 10", rate, got)
		}
	}
}

func TestRegisterRequiresType(t *testing.T) {
	_, addr := startScheduler(t, fixedSource{})
	if _, err := Dial(addr, RegisterArgs{}); err == nil {
		t.Fatal("want error for missing accelerator type")
	}
}
