package main

import (
	"bytes"
	"context"
	"log"
	"net"
	"os"
	"regexp"
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

// TestServesUntilCancelled runs the daemon on an ephemeral port, completes
// the coordinator's handshake against it, cancels, and checks that run
// returns cleanly with the listener closed.
func TestServesUntilCancelled(t *testing.T) {
	out := &logCapture{}
	log.SetOutput(out)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })

	ctx, stop := context.WithCancel(context.Background())
	exited := make(chan error, 1)
	go func() { exited <- run(ctx, config{listen: "127.0.0.1:0"}) }()

	serving := regexp.MustCompile(`serving on (\S+),`)
	var addr string
	for deadline := time.Now().Add(30 * time.Second); addr == ""; time.Sleep(5 * time.Millisecond) {
		if m := serving.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
		}
		select {
		case err := <-exited:
			t.Fatalf("daemon exited (%v) before serving:\n%s", err, out)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never served:\n%s", out)
		}
	}

	c, err := rpc.DialShard(addr)
	if err != nil {
		t.Fatalf("DialShard: %v", err)
	}
	c.Close()

	stop()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("stopped daemon returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not stop after cancel")
	}
	if conn, err := net.Dial("tcp", addr); err == nil {
		conn.Close()
		t.Fatalf("listener on %s still accepting after shutdown", addr)
	}
}
