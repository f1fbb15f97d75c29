// gavel-worker is the worker daemon for physical deployments: it registers
// with gavel-sched, leases micro-tasks round by round, and runs a synthetic
// training loop through the GavelIterator analog (internal/iterator),
// checkpointing to a local file when its lease is not renewed — the §6
// deployment model with the GPU replaced by a calibrated busy-loop.
//
// Usage:
//
//	gavel-worker -scheduler 127.0.0.1:8642 -type v100
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"gavel/internal/iterator"
	"gavel/internal/obs"
	"gavel/internal/rpc"
)

// config is the worker's whole configuration; main parses flags straight
// into it.
type config struct {
	scheduler   string
	accType     string
	server      string
	ckptDir     string
	stepsPerSec float64
	telemetry   obs.Options
}

func main() {
	cfg := config{telemetry: obs.OptionsFromEnv()}
	flag.StringVar(&cfg.scheduler, "scheduler", "127.0.0.1:8642", "scheduler control-plane address")
	flag.StringVar(&cfg.accType, "type", "v100", "accelerator type this worker exposes (v100|p100|k80)")
	flag.StringVar(&cfg.server, "server", "srv0", "physical server id (consolidation unit)")
	flag.StringVar(&cfg.ckptDir, "ckpt", os.TempDir(), "checkpoint directory")
	flag.Float64Var(&cfg.stepsPerSec, "steps-per-sec", 50, "synthetic training speed on this device")
	flag.StringVar(&cfg.telemetry.Listen, "obs-listen", cfg.telemetry.Listen, "address to serve /metrics, /statusz, and pprof on (default GAVEL_OBS_LISTEN; empty = off)")
	flag.StringVar(&cfg.telemetry.TracePath, "obs-trace", cfg.telemetry.TracePath, "JSONL span-log path (default GAVEL_OBS_TRACE; empty = ring buffer only)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, cfg); err != nil {
		log.Fatalf("gavel-worker: %v", err)
	}
}

// run registers with the scheduler and runs leased micro-tasks until no work
// has come for 20 rounds, the scheduler goes away (an error), or ctx is
// cancelled.
func run(ctx context.Context, cfg config) error {
	plane, obsSrv, traceFile, err := cfg.telemetry.Build()
	if err != nil {
		return err
	}
	if obsSrv != nil {
		defer obsSrv.Close()
		log.Printf("gavel-worker: telemetry on %s", obsSrv.Addr())
	}
	if traceFile != nil {
		defer traceFile.Close()
	}
	reg := plane.Registry()
	leasesRun := reg.CounterVec("gavel_worker_leases_total", "Micro-task leases by outcome.", "outcome")
	ckpts := reg.Counter("gavel_worker_checkpoints_total", "Checkpoints written when a lease was not renewed.")
	for _, o := range []string{"run", "empty", "error"} {
		leasesRun.With(o)
	}

	client, err := rpc.Dial(cfg.scheduler, rpc.RegisterArgs{
		AcceleratorType: cfg.accType,
		Server:          cfg.server,
	})
	if err != nil {
		return err
	}
	defer client.Close()
	log.Printf("gavel-worker: protocol v%d, registered as worker %d (%s), %s rounds",
		rpc.ProtocolVersion, client.WorkerID, cfg.accType, client.Round)

	idle := 0
	for {
		lease, err := client.Lease()
		if err != nil {
			return fmt.Errorf("lease: %w", err)
		}
		if lease.Empty {
			leasesRun.With("empty").Inc()
			idle++
			if idle > 20 {
				log.Printf("gavel-worker: no work for %d rounds, exiting", idle)
				return nil
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(500 * time.Millisecond):
			}
			continue
		}
		idle = 0
		jobID := lease.JobIDs[0]
		err = runLease(ctx, client, lease, jobID, cfg.ckptDir, cfg.stepsPerSec, ckpts)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err != nil {
			leasesRun.With("error").Inc()
			log.Printf("gavel-worker: job %d: %v", jobID, err)
		} else {
			leasesRun.With("run").Inc()
		}
	}
}

// runLease executes one micro-task: a synthetic training loop under the
// iterator, bounded by a scaled-down wall-clock round.
func runLease(ctx context.Context, client *rpc.Client, lease *rpc.Lease, jobID int, ckptDir string, stepsPerSec float64, ckpts *obs.Counter) error {
	ckptPath := fmt.Sprintf("%s/gavel-job-%d.ckpt", ckptDir, jobID)
	ck := iterator.Funcs{
		Load: func() (int64, error) {
			b, err := os.ReadFile(ckptPath)
			if errors.Is(err, os.ErrNotExist) {
				return 0, nil
			}
			if err != nil {
				return 0, err
			}
			return strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
		},
		Save: func(step int64) error {
			return os.WriteFile(ckptPath, []byte(strconv.FormatInt(step, 10)), 0o644)
		},
	}
	// Cap each micro-task at a short wall-clock slice so the demo loop
	// stays responsive regardless of the configured round length.
	budget := time.Duration(lease.RoundSeconds * float64(time.Second))
	if budget > 3*time.Second {
		budget = 3 * time.Second
	}
	deadline := time.Now().Add(budget)
	stepDur := time.Duration(float64(time.Second) / stepsPerSec)
	fake := &leaseAdapter{client: client, jobID: jobID, deadline: deadline, renewed: lease.Renewed}
	it := iterator.New(ck, fake, func(step int64) error {
		time.Sleep(stepDur) // the "GPU"
		return nil
	})
	err := it.RunRound(ctx)
	if errors.Is(err, iterator.ErrLeaseExpired) {
		ckpts.Inc()
		log.Printf("gavel-worker: job %d checkpointed at step %d", jobID, it.CurrentStep())
		return nil
	}
	return err
}

// leaseAdapter bridges the rpc client to the iterator's Lease interface.
type leaseAdapter struct {
	client   *rpc.Client
	jobID    int
	deadline time.Time
	renewed  bool
}

func (l *leaseAdapter) Renewed() bool { return l.renewed }

func (l *leaseAdapter) RoundRemaining() time.Duration {
	return time.Until(l.deadline)
}

func (l *leaseAdapter) ReportThroughput(t float64) error {
	return l.client.Report(l.jobID, t)
}
