package rpc

import (
	"fmt"
	gorpc "net/rpc"
	"time"
)

// ShardClient is the coordinator's handle to one shard daemon. Both
// transports implement it — DialShard over TCP gob, NewLocalShard calling a
// ShardServer in-process — so the Service, the simulator's sharded loop, and
// the tests drive the identical shard code path regardless of whether
// sockets are involved.
type ShardClient interface {
	Hello(args HelloArgs) (HelloReply, error)
	Configure(cfg ShardConfig) error
	Install(args InstallArgs) error
	Remove(args RemoveArgs) error
	Extract(args ExtractArgs) (ExtractReply, error)
	Allocate(args AllocateArgs) (AllocateReply, error)
	AssignRound(args AssignRoundArgs) (AssignRoundReply, error)
	Observe(args ObserveArgs) error
	ObserveJob(args ObserveJobArgs) error
	Snapshot() (SnapshotReply, error)
	Status() (ShardStatus, error)
	Ping() error
	Close() error
}

// Idempotent reports whether a control-plane call may be delivered more than
// once: whether the retry loop may re-send it and the chaos plane duplicate
// it. Every call may except Extract, which removes the job daemon-side and
// returns it — a lost reply leaves it extracted, and the Service's migrate
// path owns the recovery of that ambiguity.
func Idempotent(method string) bool { return method != "Extract" }

// localShardClient drives a ShardServer by direct method call: the
// in-memory transport the simulator and tests use. Identical code path,
// no sockets, no serialization.
type localShardClient struct {
	srv *ShardServer
}

// NewLocalShard returns a fresh unconfigured ShardServer together with an
// in-memory client for it.
func NewLocalShard() (*ShardServer, ShardClient) {
	srv := NewShardServer()
	return srv, &localShardClient{srv: srv}
}

// NewLocalShardClient wraps an existing ShardServer in an in-memory client.
func NewLocalShardClient(srv *ShardServer) ShardClient {
	return &localShardClient{srv: srv}
}

func (c *localShardClient) Hello(args HelloArgs) (HelloReply, error) {
	var reply HelloReply
	err := c.srv.Hello(args, &reply)
	return reply, err
}

func (c *localShardClient) Configure(cfg ShardConfig) error {
	var ack Ack
	return c.srv.Configure(cfg, &ack)
}

func (c *localShardClient) Install(args InstallArgs) error {
	var ack Ack
	return c.srv.Install(args, &ack)
}

func (c *localShardClient) Remove(args RemoveArgs) error {
	var ack Ack
	return c.srv.Remove(args, &ack)
}

func (c *localShardClient) Extract(args ExtractArgs) (ExtractReply, error) {
	var reply ExtractReply
	err := c.srv.Extract(args, &reply)
	return reply, err
}

func (c *localShardClient) Allocate(args AllocateArgs) (AllocateReply, error) {
	var reply AllocateReply
	err := c.srv.Allocate(args, &reply)
	return reply, err
}

func (c *localShardClient) AssignRound(args AssignRoundArgs) (AssignRoundReply, error) {
	var reply AssignRoundReply
	err := c.srv.AssignRound(args, &reply)
	return reply, err
}

func (c *localShardClient) Observe(args ObserveArgs) error {
	var ack Ack
	return c.srv.Observe(args, &ack)
}

func (c *localShardClient) ObserveJob(args ObserveJobArgs) error {
	var ack Ack
	return c.srv.ObserveJob(args, &ack)
}

func (c *localShardClient) Snapshot() (SnapshotReply, error) {
	var reply SnapshotReply
	err := c.srv.Snapshot(SnapshotArgs{}, &reply)
	return reply, err
}

func (c *localShardClient) Status() (ShardStatus, error) {
	var reply ShardStatus
	err := c.srv.Status(StatusArgs{}, &reply)
	return reply, err
}

func (c *localShardClient) Ping() error {
	var ack Ack
	return c.srv.Ping(StatusArgs{}, &ack)
}

func (c *localShardClient) Close() error { return nil }

// netShardClient speaks the shard protocol over TCP gob, bounding every call
// by the policy's per-call deadline.
type netShardClient struct {
	c       *gorpc.Client
	timeout time.Duration
}

// DialShard connects to a shard daemon with the environment's call policy
// (CallPolicyFromEnv: GAVEL_RPC_TIMEOUT deadline, retry-with-backoff on
// transient failures) and performs the version handshake. A version mismatch
// is returned as a CodeVersionMismatch error and the connection is closed.
func DialShard(addr string) (ShardClient, error) {
	return DialShardWith(addr, CallPolicyFromEnv())
}

// DialShardWith is DialShard under an explicit call policy.
func DialShardWith(addr string, pol CallPolicy) (ShardClient, error) {
	c, err := gorpc.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial shard %s: %w", addr, err)
	}
	nc := WithRetry(&netShardClient{c: c, timeout: pol.Timeout}, pol)
	if _, err := nc.Hello(HelloArgs{Version: ProtocolVersion, Role: "coordinator"}); err != nil {
		c.Close()
		return nil, err
	}
	return nc, nil
}

func (c *netShardClient) call(method string, args, reply any) error {
	return callWithin(c.c, shardServiceName+"."+method, c.timeout, CodeShardDown, args, reply)
}

// callWithin is every control-plane client's one net/rpc call: bounded by
// timeout (0 waits forever), with deadline expiry folded into CodeTimeout
// and transport-level failures (closed connection, EOF: the peer died) into
// downCode — CodeShardDown for a shard, CodeUnavailable for the submit and
// lease planes. Server-side typed errors pass through for ParseError.
func callWithin(c *gorpc.Client, method string, timeout time.Duration, downCode ErrorCode, args, reply any) error {
	var err error
	if timeout > 0 {
		done := c.Go(method, args, reply, make(chan *gorpc.Call, 1))
		timer := time.NewTimer(timeout)
		select {
		case call := <-done.Done:
			timer.Stop()
			err = call.Error
		case <-timer.C:
			// The reply, if it ever arrives, is discarded by net/rpc's read
			// loop; the pending-call entry is reclaimed when the connection
			// closes. A peer that stays hung is escalated by the caller
			// (retries, then the coordinator's degrade/recover ladder).
			return Errorf(CodeTimeout, "%s: no reply within %v", method, timeout)
		}
	} else {
		err = c.Call(method, args, reply)
	}
	if err == nil {
		return nil
	}
	if _, isServer := err.(gorpc.ServerError); isServer {
		return err
	}
	return Errorf(downCode, "%s: %v", method, err)
}

func (c *netShardClient) Hello(args HelloArgs) (HelloReply, error) {
	var reply HelloReply
	err := c.call("Hello", args, &reply)
	return reply, err
}

func (c *netShardClient) Configure(cfg ShardConfig) error {
	var ack Ack
	return c.call("Configure", cfg, &ack)
}

func (c *netShardClient) Install(args InstallArgs) error {
	var ack Ack
	return c.call("Install", args, &ack)
}

func (c *netShardClient) Remove(args RemoveArgs) error {
	var ack Ack
	return c.call("Remove", args, &ack)
}

func (c *netShardClient) Extract(args ExtractArgs) (ExtractReply, error) {
	var reply ExtractReply
	err := c.call("Extract", args, &reply)
	return reply, err
}

func (c *netShardClient) Allocate(args AllocateArgs) (AllocateReply, error) {
	var reply AllocateReply
	err := c.call("Allocate", args, &reply)
	return reply, err
}

func (c *netShardClient) AssignRound(args AssignRoundArgs) (AssignRoundReply, error) {
	var reply AssignRoundReply
	err := c.call("AssignRound", args, &reply)
	return reply, err
}

func (c *netShardClient) Observe(args ObserveArgs) error {
	var ack Ack
	return c.call("Observe", args, &ack)
}

func (c *netShardClient) ObserveJob(args ObserveJobArgs) error {
	var ack Ack
	return c.call("ObserveJob", args, &ack)
}

func (c *netShardClient) Snapshot() (SnapshotReply, error) {
	var reply SnapshotReply
	err := c.call("Snapshot", SnapshotArgs{}, &reply)
	return reply, err
}

func (c *netShardClient) Status() (ShardStatus, error) {
	var reply ShardStatus
	err := c.call("Status", StatusArgs{}, &reply)
	return reply, err
}

func (c *netShardClient) Ping() error {
	var ack Ack
	return c.call("Ping", StatusArgs{}, &ack)
}

func (c *netShardClient) Close() error { return c.c.Close() }

// Intercept returns a ShardClient that runs every call on inner through
// hook, named by its method. op makes the call on inner and fills the reply;
// hook may run it zero, one or more times — the retry loop (WithRetry) and
// the chaos plane's fault injector are both hooks. Close bypasses the hook.
func Intercept(inner ShardClient, hook func(method string, op func() error) error) ShardClient {
	return &intercepted{inner: inner, hook: hook}
}

type intercepted struct {
	inner ShardClient
	hook  func(method string, op func() error) error
}

func (c *intercepted) Hello(args HelloArgs) (reply HelloReply, err error) {
	err = c.hook("Hello", func() (e error) { reply, e = c.inner.Hello(args); return })
	return
}

func (c *intercepted) Configure(cfg ShardConfig) error {
	return c.hook("Configure", func() error { return c.inner.Configure(cfg) })
}

func (c *intercepted) Install(args InstallArgs) error {
	return c.hook("Install", func() error { return c.inner.Install(args) })
}

func (c *intercepted) Remove(args RemoveArgs) error {
	return c.hook("Remove", func() error { return c.inner.Remove(args) })
}

func (c *intercepted) Extract(args ExtractArgs) (reply ExtractReply, err error) {
	err = c.hook("Extract", func() (e error) { reply, e = c.inner.Extract(args); return })
	return
}

func (c *intercepted) Allocate(args AllocateArgs) (reply AllocateReply, err error) {
	err = c.hook("Allocate", func() (e error) { reply, e = c.inner.Allocate(args); return })
	return
}

func (c *intercepted) AssignRound(args AssignRoundArgs) (reply AssignRoundReply, err error) {
	err = c.hook("AssignRound", func() (e error) { reply, e = c.inner.AssignRound(args); return })
	return
}

func (c *intercepted) Observe(args ObserveArgs) error {
	return c.hook("Observe", func() error { return c.inner.Observe(args) })
}

func (c *intercepted) ObserveJob(args ObserveJobArgs) error {
	return c.hook("ObserveJob", func() error { return c.inner.ObserveJob(args) })
}

func (c *intercepted) Snapshot() (reply SnapshotReply, err error) {
	err = c.hook("Snapshot", func() (e error) { reply, e = c.inner.Snapshot(); return })
	return
}

func (c *intercepted) Status() (reply ShardStatus, err error) {
	err = c.hook("Status", func() (e error) { reply, e = c.inner.Status(); return })
	return
}

func (c *intercepted) Ping() error {
	return c.hook("Ping", c.inner.Ping)
}

func (c *intercepted) Close() error { return c.inner.Close() }
