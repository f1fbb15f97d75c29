package rpc

import "fmt"

// ShardClient is the coordinator's handle to one shard daemon. Both
// transports implement it — DialShard over TCP in the control plane's codec
// (codec.go), NewLocalShard calling a
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

func (c *localShardClient) Hello(args HelloArgs) (reply HelloReply, err error) {
	err = c.srv.Hello(args, &reply)
	return
}

func (c *localShardClient) Configure(cfg ShardConfig) error { return c.srv.Configure(cfg, &Ack{}) }
func (c *localShardClient) Install(args InstallArgs) error  { return c.srv.Install(args, &Ack{}) }
func (c *localShardClient) Remove(args RemoveArgs) error    { return c.srv.Remove(args, &Ack{}) }

func (c *localShardClient) Extract(args ExtractArgs) (reply ExtractReply, err error) {
	err = c.srv.Extract(args, &reply)
	return
}

func (c *localShardClient) Allocate(args AllocateArgs) (reply AllocateReply, err error) {
	err = c.srv.Allocate(args, &reply)
	return
}

func (c *localShardClient) AssignRound(args AssignRoundArgs) (reply AssignRoundReply, err error) {
	err = c.srv.AssignRound(args, &reply)
	return
}

func (c *localShardClient) Observe(args ObserveArgs) error { return c.srv.Observe(args, &Ack{}) }
func (c *localShardClient) ObserveJob(args ObserveJobArgs) error {
	return c.srv.ObserveJob(args, &Ack{})
}

func (c *localShardClient) Snapshot() (reply SnapshotReply, err error) {
	err = c.srv.Snapshot(SnapshotArgs{}, &reply)
	return
}

func (c *localShardClient) Status() (reply ShardStatus, err error) {
	err = c.srv.Status(StatusArgs{}, &reply)
	return
}

func (c *localShardClient) Ping() error  { return c.srv.Ping(StatusArgs{}, &Ack{}) }
func (c *localShardClient) Close() error { return nil }

// netShardClient speaks the shard protocol over TCP, bounding every call by
// the policy's per-call deadline.
type netShardClient struct{ *conn }

// DialShard connects to a shard daemon with the environment's call policy
// (CallPolicyFromEnv: GAVEL_RPC_TIMEOUT deadline, retry-with-backoff on
// transient failures) and performs the version handshake. A version mismatch
// is returned as a CodeVersionMismatch error and the connection is closed.
func DialShard(addr string) (ShardClient, error) {
	return DialShardWith(addr, CallPolicyFromEnv())
}

// DialShardWith is DialShard under an explicit call policy.
func DialShardWith(addr string, pol CallPolicy) (ShardClient, error) {
	c, err := dial(addr, shardServiceName, pol.Timeout, CodeShardDown)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial shard %s: %w", addr, err)
	}
	nc := WithRetry(&netShardClient{c}, pol)
	if _, err := nc.Hello(HelloArgs{Version: ProtocolVersion, Role: "coordinator"}); err != nil {
		c.Close()
		return nil, err
	}
	return nc, nil
}

func (c *netShardClient) Hello(args HelloArgs) (reply HelloReply, err error) {
	err = c.call("Hello", &args, &reply)
	return
}

func (c *netShardClient) Configure(cfg ShardConfig) error { return c.call("Configure", &cfg, &Ack{}) }
func (c *netShardClient) Install(args InstallArgs) error  { return c.call("Install", &args, &Ack{}) }
func (c *netShardClient) Remove(args RemoveArgs) error    { return c.call("Remove", &args, &Ack{}) }

func (c *netShardClient) Extract(args ExtractArgs) (reply ExtractReply, err error) {
	err = c.call("Extract", &args, &reply)
	return
}

func (c *netShardClient) Allocate(args AllocateArgs) (reply AllocateReply, err error) {
	err = c.call("Allocate", &args, &reply)
	return
}

func (c *netShardClient) AssignRound(args AssignRoundArgs) (reply AssignRoundReply, err error) {
	err = c.call("AssignRound", &args, &reply)
	return
}

func (c *netShardClient) Observe(args ObserveArgs) error { return c.call("Observe", &args, &Ack{}) }
func (c *netShardClient) ObserveJob(args ObserveJobArgs) error {
	return c.call("ObserveJob", &args, &Ack{})
}

func (c *netShardClient) Snapshot() (reply SnapshotReply, err error) {
	err = c.call("Snapshot", &SnapshotArgs{}, &reply)
	return
}

func (c *netShardClient) Status() (reply ShardStatus, err error) {
	err = c.call("Status", &StatusArgs{}, &reply)
	return
}

func (c *netShardClient) Ping() error { return c.call("Ping", &StatusArgs{}, &Ack{}) }

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
