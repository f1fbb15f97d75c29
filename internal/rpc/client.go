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

// call wraps net/rpc Call under the per-call deadline, folding
// transport-level failures (closed connection, EOF: the daemon died) into
// typed CodeShardDown errors and deadline expiry into CodeTimeout, while
// passing server-side typed errors through for ParseError.
func (c *netShardClient) call(method string, args, reply any) error {
	var err error
	if c.timeout > 0 {
		done := c.c.Go(shardServiceName+"."+method, args, reply, make(chan *gorpc.Call, 1))
		timer := time.NewTimer(c.timeout)
		select {
		case call := <-done.Done:
			timer.Stop()
			err = call.Error
		case <-timer.C:
			// The reply, if it ever arrives, is discarded by net/rpc's read
			// loop; the pending-call entry is reclaimed when the connection
			// closes. A daemon that stays hung is escalated by the caller
			// (retries, then the coordinator's degrade/recover ladder).
			return Errorf(CodeTimeout, "%s: no reply within %v", method, c.timeout)
		}
	} else {
		err = c.c.Call(shardServiceName+"."+method, args, reply)
	}
	if err == nil {
		return nil
	}
	if _, isServer := err.(gorpc.ServerError); isServer {
		return err // server-side error string; ParseError recovers the code
	}
	return Errorf(CodeShardDown, "%s: %v", method, err)
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
