// gavel-shard is the shard daemon of the multi-process cluster service: it
// serves the coordinator <-> shard control plane (internal/rpc) on a TCP
// port and runs one partition of the cluster — its own solve context, warm
// LP bases, throughput cache, and round mechanism. Daemons start bare (OPA
// bundle-style) and receive their identity from the coordinator's Configure
// push, so the same binary serves any shard.
//
// Usage:
//
//	gavel-shard -listen 127.0.0.1:8650
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"

	"gavel/internal/obs"
	"gavel/internal/rpc"
)

// config is the daemon's whole configuration; main parses flags straight
// into it.
type config struct {
	listen    string
	telemetry obs.Options
}

func main() {
	cfg := config{telemetry: obs.OptionsFromEnv()}
	flag.StringVar(&cfg.listen, "listen", "127.0.0.1:8650", "address to serve the shard control plane on")
	flag.StringVar(&cfg.telemetry.Listen, "obs-listen", cfg.telemetry.Listen, "address to serve /metrics, /statusz, /debug/trace, and pprof on (default GAVEL_OBS_LISTEN; empty = off)")
	flag.StringVar(&cfg.telemetry.TracePath, "obs-trace", cfg.telemetry.TracePath, "JSONL span-log path (default GAVEL_OBS_TRACE; empty = ring buffer only)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg); err != nil {
		log.Fatalf("gavel-shard: %v", err)
	}
}

// run serves the shard control plane until ctx is cancelled, then closes the
// listener and every connection.
func run(ctx context.Context, cfg config) error {
	plane, obsSrv, traceFile, err := cfg.telemetry.Build()
	if err != nil {
		return err
	}
	if traceFile != nil {
		defer traceFile.Close()
	}

	srv := rpc.NewShardServer()
	srv.SetObs(plane)
	if obsSrv != nil {
		obsSrv.AddStatus("shard", srv.StatusText)
		defer obsSrv.Close()
		log.Printf("gavel-shard: telemetry on %s (/metrics /statusz /debug/trace /debug/pprof)", obsSrv.Addr())
	}
	addr, err := srv.Serve(cfg.listen)
	if err != nil {
		return err
	}
	log.Printf("gavel-shard: protocol v%d, serving on %s, awaiting Configure", rpc.ProtocolVersion, addr)

	<-ctx.Done()
	log.Printf("gavel-shard: shutting down")
	return srv.Close()
}
