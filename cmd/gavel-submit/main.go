// gavel-submit is the tenant-side client of the coordinator's submission
// plane. It streams jobs into a running gavel-sched (-submit-listen), honors
// backpressure (a CodeOverload refusal carries a retry-after hint in rounds,
// which the client sleeps out before retrying), and polls every submission to
// a terminal state — polling doubles as the liveness signal that keeps the
// tenant clear of the abandoned-client TTL.
//
// Two input forms:
//
//   - -client "tenant=flood,jobs=12,seed=7,lie=3,steps=0.01": a seeded
//     synthetic tenant (internal/chaos.ClientSpec) expanded into its
//     deterministic submission stream — what the chaos-smoke CI job uses for
//     its flooding and misreporting tenants.
//   - -submit "tenant=acme,key=job-7,name=resnet50,steps=5000,tput=120;80;30":
//     one explicit submission (rpc.ParseSubmitSpec).
//   - -withdraw "tenant=acme,key=job-7": withdraw a submission and exit.
//
// The final summary line is machine-greppable:
//
//	gavel-submit: tenant=flood summary submitted=12 done=9 rejected=3 withdrawn=0 backpressured=5
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"gavel/internal/chaos"
	"gavel/internal/rpc"
)

// config is the client's whole configuration; main parses flags straight
// into it.
type config struct {
	scheduler                     string
	client, submit, withdraw      string
	roundHint, pollEvery, timeout time.Duration
	noWait                        bool
}

func main() {
	var cfg config
	flag.StringVar(&cfg.scheduler, "scheduler", "127.0.0.1:8643", "coordinator submission-plane address (gavel-sched -submit-listen)")
	flag.StringVar(&cfg.client, "client", "", "synthetic tenant spec, e.g. tenant=flood,jobs=12,seed=7,lie=3,steps=0.01")
	flag.StringVar(&cfg.submit, "submit", "", "one submission, e.g. tenant=acme,key=job-7,name=resnet50,steps=5000,tput=120;80;30")
	flag.StringVar(&cfg.withdraw, "withdraw", "", "withdraw a submission by tenant=...,key=... and exit")
	flag.DurationVar(&cfg.roundHint, "round", time.Second, "what one round of a retry-after hint is worth in wall time")
	flag.DurationVar(&cfg.pollEvery, "poll-every", time.Second, "poll interval while waiting for terminal states")
	flag.DurationVar(&cfg.timeout, "timeout", 10*time.Minute, "overall deadline for the stream to reach terminal states")
	flag.BoolVar(&cfg.noWait, "no-wait", false, "exit after submitting instead of polling to terminal states")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	sum, err := run(ctx, cfg)
	if sum != nil {
		fmt.Println(sum)
	}
	if err != nil {
		log.Fatalf("gavel-submit: %v", err)
	}
}

// summary counts one stream's final states — the greppable last line.
type summary struct {
	tenant                                              string
	submitted, done, rejected, withdrawn, backpressured int
}

func (s *summary) String() string {
	return fmt.Sprintf("gavel-submit: tenant=%s summary submitted=%d done=%d rejected=%d withdrawn=%d backpressured=%d",
		s.tenant, s.submitted, s.done, s.rejected, s.withdrawn, s.backpressured)
}

// run withdraws, or streams and (unless noWait) polls to terminal states.
// The summary is nil unless the stream was polled; it comes with an error
// when the deadline passed with submissions still pending.
func run(ctx context.Context, cfg config) (*summary, error) {
	modes := 0
	for _, s := range []string{cfg.client, cfg.submit, cfg.withdraw} {
		if s != "" {
			modes++
		}
	}
	if modes != 1 {
		return nil, errors.New("exactly one of -client, -submit, or -withdraw is required")
	}

	c, err := rpc.DialSubmit(cfg.scheduler)
	if err != nil {
		return nil, err
	}
	defer c.Close()

	if cfg.withdraw != "" {
		args, err := rpc.ParseSubmitSpec(cfg.withdraw)
		if err != nil {
			return nil, err
		}
		rep, err := c.Withdraw(rpc.WithdrawArgs{Tenant: args.Tenant, Key: args.Key})
		if err != nil {
			return nil, fmt.Errorf("withdraw %s/%s: %w", args.Tenant, args.Key, err)
		}
		log.Printf("gavel-submit: withdrew %s/%s (state %s)", args.Tenant, args.Key, rep.State)
		return nil, nil
	}

	var stream []rpc.SubmitArgs
	if cfg.client != "" {
		cs, err := chaos.ParseClientSpec(cfg.client)
		if err != nil {
			return nil, err
		}
		stream = cs.Submissions()
		log.Printf("gavel-submit: tenant=%s expanding spec %q into %d submissions", cs.Tenant, cs.String(), len(stream))
	} else {
		args, err := rpc.ParseSubmitSpec(cfg.submit)
		if err != nil {
			return nil, err
		}
		stream = []rpc.SubmitArgs{args}
	}
	sum := &summary{tenant: stream[0].Tenant, submitted: len(stream)}

	deadline := time.Now().Add(cfg.timeout)
	for _, a := range stream {
		for {
			rep, err := c.Submit(a)
			if err == nil {
				log.Printf("gavel-submit: %s/%s -> job %d (%s)", a.Tenant, a.Key, rep.JobID, rep.State)
				break
			}
			// Backpressure is ours to honor: sleep out the hint and retry the
			// same key — the server dedupes, so a refusal-then-accept cannot
			// double-submit.
			ra := rpc.RetryAfter(err)
			if ra <= 0 {
				return nil, fmt.Errorf("submit %s/%s: %w", a.Tenant, a.Key, err)
			}
			sum.backpressured++
			log.Printf("gavel-submit: %s/%s refused (retry-after=%d rounds): %v", a.Tenant, a.Key, ra, err)
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("gave up on %s/%s: still refused at deadline", a.Tenant, a.Key)
			}
			if err := sleep(ctx, time.Duration(ra)*cfg.roundHint); err != nil {
				return nil, err
			}
		}
	}
	log.Printf("gavel-submit: tenant=%s streamed %d submissions (%d backpressure refusals honored)",
		sum.tenant, len(stream), sum.backpressured)
	if cfg.noWait {
		return nil, nil
	}

	// Poll every key until the whole stream is terminal. Each poll refreshes
	// the tenant's liveness clock server-side.
	for {
		sum.done, sum.rejected, sum.withdrawn = 0, 0, 0
		pending := 0
		for _, a := range stream {
			rep, err := c.Poll(rpc.PollArgs{Tenant: a.Tenant, Key: a.Key})
			if err != nil {
				return nil, fmt.Errorf("poll %s/%s: %w", a.Tenant, a.Key, err)
			}
			switch rep.State {
			case rpc.SubmissionQueued, rpc.SubmissionAdmitted:
				pending++
			case rpc.SubmissionDone:
				sum.done++
			case rpc.SubmissionRejected:
				sum.rejected++
			case rpc.SubmissionWithdrawn:
				sum.withdrawn++
			}
		}
		if pending == 0 {
			return sum, nil
		}
		if time.Now().After(deadline) {
			return sum, fmt.Errorf("tenant=%s timed out with %d submissions still pending", sum.tenant, pending)
		}
		if err := sleep(ctx, cfg.pollEvery); err != nil {
			return nil, err
		}
	}
}

// sleep waits d or until ctx is cancelled, returning ctx's error then.
func sleep(ctx context.Context, d time.Duration) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(d):
		return nil
	}
}
