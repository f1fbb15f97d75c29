package main

import (
	"context"
	"testing"
	"time"

	"gavel/internal/cluster"
	"gavel/internal/policy"
	"gavel/internal/rpc"
)

// TestSubmitRunsStreamToTerminal drives run against an in-process submission
// plane: a coordinator over two in-memory shards whose tenants may queue one
// submission each. A single submission is queued and withdrawn before any
// round runs. Then a three-job stream fills the queue; its second submission
// is refused with a retry-after hint, and only that refusal starts the round
// loop, which admits each job and retires it the next round. The client
// sleeps out the hint, resubmits the same key, and polls all three to done.
func TestSubmitRunsStreamToTerminal(t *testing.T) {
	_, c0 := rpc.NewLocalShard()
	_, c1 := rpc.NewLocalShard()
	svc, err := rpc.NewService(rpc.ServiceConfig{
		Cluster: cluster.Small12(),
		Policy:  rpc.PolicySpec{Name: "max_min_fairness"},
		Admission: &rpc.AdmissionConfig{
			MaxQueuePerTenant: 1,
		},
	}, []rpc.ShardClient{c0, c1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := rpc.NewSubmitServer(svc)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cfg := config{scheduler: addr, roundHint: 5 * time.Millisecond, pollEvery: 5 * time.Millisecond, timeout: 30 * time.Second}
	ctx := context.Background()

	one := cfg
	one.submit, one.noWait = "tenant=w,key=k0,steps=10,tput=1;1;1", true
	if sum, err := run(ctx, one); err != nil || sum != nil {
		t.Fatalf("-submit -no-wait: summary %v, err %v", sum, err)
	}
	one.submit, one.withdraw = "", "tenant=w,key=k0"
	if _, err := run(ctx, one); err != nil {
		t.Fatalf("-withdraw: %v", err)
	}
	if rep, err := svc.Poll(rpc.PollArgs{Tenant: "w", Key: "k0"}); err != nil || rep.State != rpc.SubmissionWithdrawn {
		t.Fatalf("withdrawn submission polls as %v (%v)", rep.State, err)
	}

	// The round loop: Service is round-loop-only, so rounds run on this one
	// goroutine, and not before the stream has been pushed back once.
	stop := make(chan struct{})
	loop := make(chan error, 1)
	go func() {
		plan := &rpc.RoundPlan{
			RoundSeconds: 1,
			Done:         func(int) bool { return true },
			Info:         func(int) policy.JobInfo { return policy.JobInfo{Weight: 1, RemainingSteps: 1, TotalSteps: 1} },
		}
		for {
			select {
			case <-stop:
				loop <- nil
				return
			case <-time.After(time.Millisecond):
			}
			if ts := svc.TenantStats(); len(ts) < 2 || ts[1].Refused == 0 {
				continue
			}
			if _, err := svc.RunRound(plan); err != nil {
				loop <- err
				return
			}
		}
	}()
	sum, err := run(ctx, config{client: "tenant=t,jobs=3,seed=1", scheduler: addr,
		roundHint: cfg.roundHint, pollEvery: cfg.pollEvery, timeout: cfg.timeout})
	close(stop)
	if err := <-loop; err != nil {
		t.Fatalf("round loop: %v", err)
	}
	if err != nil {
		t.Fatalf("-client: %v", err)
	}
	if sum.submitted != 3 || sum.done != 3 || sum.backpressured == 0 {
		t.Fatalf("summary %q: want 3 submitted, 3 done, at least one refusal honored", sum)
	}
	if ts := svc.TenantStats()[1]; ts.Submitted != 3 || ts.Done != 3 {
		t.Fatalf("coordinator saw %+v, want 3 submitted and done once each", ts)
	}
}
