package rpc

// The submission plane's network face: tenants dial a SubmitClient at the
// coordinator and stream Submit / Withdraw / Poll. The surface is fully
// idempotent (submissions dedupe by key, withdrawals and polls are safe to
// repeat), so the client retries transient failures under the same call
// policy and the same retry loop the shard plane uses; CodeOverload is
// deliberately NOT retried here — backpressure is the caller's to honor, via
// RetryAfter.

import "fmt"

// submitServiceName is the wire service name of the submission plane.
const submitServiceName = "GavelSubmit"

// SubmitServer exposes one Service's submission surface over TCP. The
// handlers call only the Service's concurrent-safe ingress methods, so the
// server runs alongside the round loop without extra locking.
type SubmitServer struct {
	handshake
	svc *Service
	tcp tcpServer
}

// NewSubmitServer wraps svc for serving. The Service must have been built
// with ServiceConfig.Admission set.
func NewSubmitServer(svc *Service) *SubmitServer { return &SubmitServer{svc: svc} }

// Serve starts the TCP listener on addr ("host:port"), returning the bound
// address (useful with ":0").
func (s *SubmitServer) Serve(addr string) (string, error) {
	return s.tcp.serve(addr, submitServiceName, s.handlers())
}

// handlers is the submission plane's method table.
func (s *SubmitServer) handlers() map[string]handler {
	return map[string]handler{
		"Hello":    handle(s.Hello),
		"Submit":   handle(s.Submit),
		"Withdraw": handle(s.Withdraw),
		"Poll":     handle(s.Poll),
	}
}

// Close stops the listener and tears down in-flight connections.
func (s *SubmitServer) Close() error { return s.tcp.close() }

// Submit handles one streamed submission.
func (s *SubmitServer) Submit(args SubmitArgs, reply *SubmitReply) error {
	rep, err := s.svc.Submit(args)
	*reply = rep
	return err
}

// Withdraw handles one withdrawal.
func (s *SubmitServer) Withdraw(args WithdrawArgs, reply *WithdrawReply) error {
	rep, err := s.svc.Withdraw(args)
	*reply = rep
	return err
}

// Poll handles one state poll.
func (s *SubmitServer) Poll(args PollArgs, reply *PollReply) error {
	rep, err := s.svc.Poll(args)
	*reply = rep
	return err
}

// SubmitClient is a tenant's handle to the submission plane.
type SubmitClient struct {
	c     *conn
	retry *retrier
}

// DialSubmit connects to a coordinator's submission endpoint with the
// environment's call policy and performs the version handshake.
func DialSubmit(addr string) (*SubmitClient, error) {
	return DialSubmitWith(addr, CallPolicyFromEnv())
}

// DialSubmitWith is DialSubmit under an explicit call policy.
func DialSubmitWith(addr string, pol CallPolicy) (*SubmitClient, error) {
	c, err := dial(addr, submitServiceName, pol.Timeout, CodeUnavailable)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial submit %s: %w", addr, err)
	}
	sc := &SubmitClient{c: c, retry: newRetrier(pol)}
	if err := sc.call("Hello", &HelloArgs{Version: ProtocolVersion, Role: "client"}, &HelloReply{}); err != nil {
		c.Close()
		return nil, err
	}
	return sc, nil
}

// call is one deadline-bounded request under the policy's retry loop —
// every submission-plane method is idempotent, so at-least-once is safe by
// construction.
func (c *SubmitClient) call(method string, args, reply message) error {
	return c.retry.do(method, func() error {
		return c.c.call(method, args, reply)
	})
}

// Submit streams one job submission.
func (c *SubmitClient) Submit(args SubmitArgs) (SubmitReply, error) {
	var reply SubmitReply
	err := c.call("Submit", &args, &reply)
	return reply, err
}

// Withdraw withdraws a submission by key.
func (c *SubmitClient) Withdraw(args WithdrawArgs) (WithdrawReply, error) {
	var reply WithdrawReply
	err := c.call("Withdraw", &args, &reply)
	return reply, err
}

// Poll reports a submission's state (and refreshes the tenant's liveness
// clock server-side).
func (c *SubmitClient) Poll(args PollArgs) (PollReply, error) {
	var reply PollReply
	err := c.call("Poll", &args, &reply)
	return reply, err
}

// Close releases the connection.
func (c *SubmitClient) Close() error { return c.c.Close() }
