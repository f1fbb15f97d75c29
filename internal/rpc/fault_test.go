package rpc

// Transport-level fault tests: per-call deadlines against hung daemons,
// retry policy behavior, and goroutine-leak assertions for every server and
// client teardown path (no goleak dependency: runtime.NumGoroutine polling
// against a pre-test baseline).

import (
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// hungListener accepts TCP connections and never says a word on them: a
// peer that hangs after connect. Closed with the test.
func hungListener(t *testing.T) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold the connection open, say nothing
		}
	}()
	return ln.Addr().String()
}

// TestCallTimeoutAgainstHungServer dials a raw TCP listener that accepts
// connections but never speaks net/rpc: without a deadline the handshake
// would block forever; with one it must fail fast with CodeTimeout.
func TestCallTimeoutAgainstHungServer(t *testing.T) {
	addr := hungListener(t)
	pol := CallPolicy{Timeout: 50 * time.Millisecond, Retries: 1, Backoff: time.Millisecond}
	start := time.Now()
	_, err := DialShardWith(addr, pol)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("dial against a hung server succeeded")
	}
	if CodeOf(err) != CodeTimeout {
		t.Fatalf("error code = %v, want %v (err: %v)", CodeOf(err), CodeTimeout, err)
	}
	// One attempt + one retry at 50ms each, plus jittered backoff: well
	// under a second unless the deadline is broken.
	if elapsed > 2*time.Second {
		t.Fatalf("timed-out dial took %v; deadline not enforced", elapsed)
	}
}

// TestRetryRecoversTransient: a call that fails transiently recovers within
// the retry budget; a call that keeps failing surfaces the transient error;
// non-transient errors, and any error from Extract, are never retried.
func TestRetryRecoversTransient(t *testing.T) {
	_, inner := NewLocalShard()
	calls := 0
	var inject func() error
	f := newFlakyClient(inner)
	f.fail = func(method string) error {
		if method != "Ping" && method != "Extract" {
			return nil
		}
		calls++
		return inject()
	}
	c := WithRetry(f, CallPolicy{Retries: 2, Backoff: time.Microsecond})

	inject = func() error {
		if calls < 3 {
			return Errorf(CodeUnavailable, "drop %d", calls)
		}
		return nil
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("retry did not recover a transient failure: %v", err)
	}
	if calls != 3 {
		t.Fatalf("%d attempts, want 3 (1 + 2 retries)", calls)
	}

	calls, inject = 0, func() error { return Errorf(CodeTimeout, "always") }
	if err := c.Ping(); CodeOf(err) != CodeTimeout {
		t.Fatalf("exhausted retries returned %v, want CodeTimeout", err)
	}
	if calls != 3 {
		t.Fatalf("%d attempts on persistent transient, want 3", calls)
	}

	calls, inject = 0, func() error { return Errorf(CodeShardDown, "dead") }
	if err := c.Ping(); CodeOf(err) != CodeShardDown {
		t.Fatalf("non-transient error returned %v", err)
	}
	if calls != 1 {
		t.Fatalf("non-transient error was retried (%d attempts)", calls)
	}

	// Extract is not Idempotent: a transient failure is sent once and
	// surfaces, whatever the retry budget.
	calls, inject = 0, func() error { return Errorf(CodeUnavailable, "reply lost") }
	if _, err := c.Extract(ExtractArgs{JobID: 1}); CodeOf(err) != CodeUnavailable {
		t.Fatalf("transient Extract returned %v, want CodeUnavailable", err)
	}
	if calls != 1 {
		t.Fatalf("Extract sent %d times, want exactly 1", calls)
	}
}

// TestWorkerDialAgainstHungScheduler: the lease plane's worker client runs
// under the same per-call deadline, so a scheduler that accepts and never
// answers fails the worker's handshake with CodeTimeout instead of blocking
// it forever.
func TestWorkerDialAgainstHungScheduler(t *testing.T) {
	addr := hungListener(t)
	t.Setenv("GAVEL_RPC_TIMEOUT", "50ms")
	done := make(chan error, 1)
	go func() {
		c, err := Dial(addr, RegisterArgs{AcceleratorType: "v100"})
		if err == nil {
			c.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if CodeOf(err) != CodeTimeout {
			t.Fatalf("dial against a hung scheduler returned %v, want CodeTimeout", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("worker dial still blocked after 3s against a hung scheduler")
	}
}

// closeCounter counts Close calls; every other method goes to the embedded
// client.
type closeCounter struct {
	ShardClient
	closes int
}

func (c *closeCounter) Close() error { c.closes++; return nil }

// TestInterceptRoutesEveryMethod walks the ShardClient method set by
// reflection, so a method added later is covered without editing the test:
// each call reaches the hook once under its own name and the inner client
// once per run of op (the hook here runs it twice); Close skips the hook.
func TestInterceptRoutesEveryMethod(t *testing.T) {
	_, local := NewLocalShard()
	reached := map[string]int{}
	inner := &closeCounter{ShardClient: Intercept(local, func(method string, op func() error) error {
		reached[method]++
		return op()
	})}
	var hooked []string
	c := Intercept(inner, func(method string, op func() error) error {
		hooked = append(hooked, method)
		op()
		return op()
	})

	typ := reflect.TypeOf((*ShardClient)(nil)).Elem()
	for i := 0; i < typ.NumMethod(); i++ {
		m := typ.Method(i)
		in := make([]reflect.Value, m.Type.NumIn())
		for j := range in {
			in[j] = reflect.Zero(m.Type.In(j))
		}
		hooked, reached = nil, map[string]int{}
		reflect.ValueOf(c).MethodByName(m.Name).Call(in)
		if m.Name == "Close" {
			if len(hooked) != 0 || inner.closes != 1 {
				t.Fatalf("Close: hooked as %v, inner closed %d times; want no hook and 1 close", hooked, inner.closes)
			}
			continue
		}
		if len(hooked) != 1 || hooked[0] != m.Name {
			t.Fatalf("%s: hook saw %v, want [%s]", m.Name, hooked, m.Name)
		}
		if len(reached) != 1 || reached[m.Name] != 2 {
			t.Fatalf("%s: inner reached %v, want %s twice", m.Name, reached, m.Name)
		}
	}
}

// waitGoroutines polls until the goroutine count drops back to at most
// baseline (plus slack for runtime background threads), failing the test if
// it never does: the leak assertion.
func waitGoroutines(t *testing.T, baseline int, context string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("%s leaked goroutines: %d running, baseline %d\n%s",
				context, runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShardServerCloseLeaksNothing: Serve, connect, make calls, then Close
// with the client still attached — every accept-loop and per-connection
// goroutine must exit.
func TestShardServerCloseLeaksNothing(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv := NewShardServer()
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialShard(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	// Abrupt teardown order: server first, with the connection still open.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	waitGoroutines(t, baseline, "ShardServer.Close")
}

// TestShardServerAbortedConnectionsLeakNothing: connections that die
// mid-session (the chaos crash case) must not strand ServeConn goroutines.
func TestShardServerAbortedConnectionsLeakNothing(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv := NewShardServer()
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.Write([]byte("not a gob stream"))
		conn.Close()
	}
	c, err := DialShard(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, baseline, "aborted connections")
}

// TestSchedulerCloseLeaksNothing: the lease plane's Serve/Close cycle with a
// live worker connection attached.
func TestSchedulerCloseLeaksNothing(t *testing.T) {
	baseline := runtime.NumGoroutine()
	sched := NewScheduler(1, fixedSource{})
	addr, err := sched.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Close(); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitGoroutines(t, baseline, "Scheduler.Close")
}

// TestServiceCloseLeaksNothing: a journaled Service over TCP daemons,
// exercised and closed — clients, journal, and server teardown all joined.
func TestServiceCloseLeaksNothing(t *testing.T) {
	baseline := runtime.NumGoroutine()
	var servers []*ShardServer
	var clients []ShardClient
	for i := 0; i < 2; i++ {
		srv := NewShardServer()
		addr, err := srv.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c, err := DialShard(addr)
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		clients = append(clients, c)
	}
	svc, err := NewService(testServiceConfig(t.TempDir()+"/j.wal"), clients)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Admit(0, 1, testTput(0)); err != nil {
		t.Fatal(err)
	}
	if err := svc.AllocateAll(0, testJobInfo, false); err != nil {
		t.Fatal(err)
	}
	if err := svc.EndRound(0); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	for _, srv := range servers {
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
	waitGoroutines(t, baseline, "Service.Close")
}
