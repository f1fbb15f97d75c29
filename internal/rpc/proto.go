// Package rpc is Gavel's control plane for physical deployments. It carries
// two protocols over its own synchronous TCP transport (transport.go; the
// stand-in for the paper's gRPC, see DESIGN.md):
//
//   - the scheduler <-> worker lease protocol of §6 (rpc.go): workers
//     register their accelerator type, lease micro-tasks round by round, and
//     report measured throughputs;
//   - the coordinator <-> shard protocol (shardapi.go, shardserver.go,
//     service.go): the coordinator (Service) drives shards — each owning one
//     partition of the cluster and running the per-cluster machinery of
//     internal/cluster, in this process or as a daemon — through
//     round-synchronized Allocate/AssignRound calls, admission and migration
//     messages that carry warm LP bases, and periodic basis snapshots that
//     let a crashed daemon's jobs recover warm on the survivors.
//
// Both protocols are versioned: every connection opens with a handshake and
// a version mismatch is a typed error, not a garbled stream. Round
// boundaries are the batching unit of the wire protocol (Obladi-style
// epochs), which is what keeps a run byte-deterministic across transports:
// everything inside a round is a pure function of the shard's state, and the
// coordinator serializes state changes between rounds.
package rpc

import (
	"errors"
	"fmt"
	"regexp"
	"strconv"
)

// ProtocolVersion is the control-plane protocol spoken by this build.
// Version 1 was the seed's unversioned lease-only protocol; version 2 added
// the handshake, typed errors, and the coordinator <-> shard surface;
// version 3 added the client submission plane (Submit/Withdraw/Poll, the
// CodeOverload backpressure class, and the shard ObserveJob row update);
// version 4 changed lp.Basis's wire bytes (basis wire version 2); version 5
// replaced gob with the control plane's own codec (codec.go).
const ProtocolVersion = 5

// MinProtocolVersion is the oldest peer version this build accepts. Every
// peer in a deployment ships from the same tree, so it equals the current
// version. A peer older than 5 speaks gob, which this build cannot read: it is
// refused at its first frame, before a Hello could name its version.
const MinProtocolVersion = 5

// ErrorCode classifies control-plane failures so callers can branch on the
// failure class instead of matching error strings.
type ErrorCode int

const (
	// CodeUnknown tags errors that did not originate as a typed Error.
	CodeUnknown ErrorCode = iota
	// CodeVersionMismatch: the peer speaks an incompatible protocol version.
	CodeVersionMismatch
	// CodeBadRequest: the message was structurally invalid.
	CodeBadRequest
	// CodeNotConfigured: the shard daemon has not received Configure yet.
	CodeNotConfigured
	// CodeAlreadyConfigured: a second Configure tried to change the shard's
	// identity.
	CodeAlreadyConfigured
	// CodeUnknownWorker: the worker ID is not registered.
	CodeUnknownWorker
	// CodeUnknownJob: the job ID is not resident.
	CodeUnknownJob
	// CodeUnknownPolicy: the policy spec names no registered policy.
	CodeUnknownPolicy
	// CodeNoAllocation: AssignRound was called before any Allocate.
	CodeNoAllocation
	// CodeShardDown: a shard daemon stopped answering (connection-level
	// failures are folded into this code by the client wrappers).
	CodeShardDown
	// CodeInternal: the shard's engine failed (LP error, budget violation).
	CodeInternal
	// CodeTimeout: a call exceeded its per-call deadline. Transient — the
	// daemon may be slow but alive, so the retry layer re-sends and the
	// coordinator degrades (proceeds on the last allocation) rather than
	// recovering immediately.
	CodeTimeout
	// CodeUnavailable: the message was lost in transit (the chaos plane's
	// injected drops and partitions use this code). Transient, like
	// CodeTimeout.
	CodeUnavailable
	// CodeOverload: the submission plane refused new work — a tenant's
	// ingress queue is full or its quota is exhausted. Deliberately NOT
	// transient: an immediate retry would be re-refused; the error message
	// carries a "retry-after=N" rounds hint (RetryAfter) and well-behaved
	// clients back off by it.
	CodeOverload
)

func (c ErrorCode) String() string {
	switch c {
	case CodeVersionMismatch:
		return "version-mismatch"
	case CodeBadRequest:
		return "bad-request"
	case CodeNotConfigured:
		return "not-configured"
	case CodeAlreadyConfigured:
		return "already-configured"
	case CodeUnknownWorker:
		return "unknown-worker"
	case CodeUnknownJob:
		return "unknown-job"
	case CodeUnknownPolicy:
		return "unknown-policy"
	case CodeNoAllocation:
		return "no-allocation"
	case CodeShardDown:
		return "shard-down"
	case CodeInternal:
		return "internal"
	case CodeTimeout:
		return "timeout"
	case CodeUnavailable:
		return "unavailable"
	case CodeOverload:
		return "overload"
	}
	return "unknown"
}

// IsTransient reports whether the failure class is worth retrying: the call
// may have been lost (dropped, partitioned) or merely slow (deadline), and
// re-sending it against the same daemon can succeed. CodeShardDown is NOT
// transient — the connection itself is dead, and the correct escalation is
// the coordinator's Recover path, not a retry.
func IsTransient(c ErrorCode) bool {
	return c == CodeTimeout || c == CodeUnavailable
}

// Error is a typed control-plane error. A server-side error crosses the wire
// as its string, so Error renders itself with a parsable prefix and CodeOf
// recovers the code client-side.
type Error struct {
	Code ErrorCode
	Msg  string
}

// Errorf builds a typed error.
func Errorf(code ErrorCode, format string, args ...any) *Error {
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// Error implements error with the wire-parsable "gavelrpc[N]: msg" form.
func (e *Error) Error() string {
	return fmt.Sprintf("gavelrpc[%d]: %s", int(e.Code), e.Msg)
}

var wireErrRe = regexp.MustCompile(`(?s)^gavelrpc\[(-?\d+)\]: (.*)$`)

// ParseError recovers a typed Error from an error that crossed the wire as a
// string. Errors without the wire prefix come back with CodeUnknown.
func ParseError(err error) *Error {
	if err == nil {
		return nil
	}
	var typed *Error
	if errors.As(err, &typed) {
		return typed
	}
	if m := wireErrRe.FindStringSubmatch(err.Error()); m != nil {
		n, _ := strconv.Atoi(m[1])
		return &Error{Code: ErrorCode(n), Msg: m[2]}
	}
	return &Error{Code: CodeUnknown, Msg: err.Error()}
}

// CodeOf extracts the error code, CodeUnknown for nil or untyped errors.
func CodeOf(err error) ErrorCode {
	if err == nil {
		return CodeUnknown
	}
	return ParseError(err).Code
}

// HelloArgs opens every control-plane connection: the caller announces its
// protocol version and role before any other call.
type HelloArgs struct {
	Version int
	// Role is informational ("coordinator", "worker", "test"), logged by the
	// server.
	Role string
}

// HelloReply acknowledges the handshake with the server's version.
type HelloReply struct {
	Version int
}

// CheckVersion is the server half of the handshake.
func CheckVersion(v int) error {
	if v < MinProtocolVersion || v > ProtocolVersion {
		return Errorf(CodeVersionMismatch,
			"peer speaks protocol %d, this build accepts %d..%d", v, MinProtocolVersion, ProtocolVersion)
	}
	return nil
}
