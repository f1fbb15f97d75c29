package rpc

import (
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"gavel/internal/wire"
)

// conn is the calling end of a control-plane connection (shard, submission
// or lease plane). A call runs on its caller's goroutine, with no reader
// goroutine and no channel or timer; concurrent calls take turns.
type conn struct {
	mu       sync.Mutex
	nc       net.Conn
	codec    *codec
	seq      uint64
	prefix   string        // the plane's service name and a dot
	timeout  time.Duration // per call; 0 waits forever
	downCode ErrorCode     // what a lost connection means on this plane
}

// dial connects to the plane served as service at addr.
func dial(addr, service string, timeout time.Duration, downCode ErrorCode) (*conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{nc: nc, codec: newCodec(nc), prefix: service + ".", timeout: timeout, downCode: downCode}, nil
}

// call writes one request and reads replies until its own seq comes back,
// bounded by the timeout as a connection deadline. Expiry is CodeTimeout; any
// other transport failure (closed connection, EOF: the peer died; a malformed
// reply) is downCode — CodeShardDown for a shard, CodeUnavailable for the
// submit and lease planes. Server-side errors pass through for ParseError.
//
// A timed-out call leaves the connection usable: its reply, when it comes,
// carries an older seq and the next call reads past it, even if the deadline
// cut it mid-frame (readFrame resumes). Any other failure closes the
// connection, and every later call fails with downCode.
func (c *conn) call(method string, args, reply message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.timeout > 0 {
		c.nc.SetDeadline(time.Now().Add(c.timeout)) // on a closed connection, Write fails next
	}
	c.seq++
	if n, err := c.nc.Write(c.codec.putFrame(c.prefix, method, c.seq, "", args)); err != nil {
		if n > 0 { // a torn request would garble every later one
			c.nc.Close()
		}
		return c.fail(method, err)
	}
	for {
		_, seq, errMsg, err := c.codec.readFrame()
		switch {
		case err != nil:
			return c.fail(method, err)
		case seq != c.seq:
			continue // the reply to a call that timed out
		case len(errMsg) > 0:
			return errors.New(string(errMsg))
		}
		if err := c.codec.readBody(reply); err != nil {
			return c.fail(method, err)
		}
		return nil
	}
}

// fail types a transport error and, unless a deadline's, closes the connection.
func (c *conn) fail(method string, err error) error {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return Errorf(CodeTimeout, "%s%s: no reply within %v", c.prefix, method, c.timeout)
	}
	c.nc.Close()
	return Errorf(c.downCode, "%s%s: %v", c.prefix, method, err)
}

// Close closes the connection; a call blocked on it returns downCode.
func (c *conn) Close() error { return c.nc.Close() }

// handler decodes a request's arguments from r, runs the method, returns its reply.
type handler func(r *wire.Reader) (message, error)

// wireForm is a pointer to a T that has a wire form.
type wireForm[T any] interface {
	*T
	message
}

// handle adapts a served method, func(args A, reply *R) error, to a
// handler: each plane's table is built from its methods once, and a call
// runs its method with no reflection.
func handle[A, R any, PA wireForm[A], PR wireForm[R]](f func(A, *R) error) handler {
	return func(r *wire.Reader) (message, error) {
		var args A
		PA(&args).readWire(r)
		if err := r.Finish(); err != nil {
			return nil, Errorf(CodeBadRequest, "arguments: %v", err)
		}
		reply := new(R)
		return PR(reply), f(args, reply) // serveConn sends no reply with an error
	}
}

// serveConn answers rw's requests one at a time, in the order sent, until a
// read or a write fails or a frame is not a request. An unknown method or
// undecodable arguments get a CodeBadRequest reply and the connection stays
// open: the frame length kept the stream in step.
func serveConn(rw io.ReadWriter, table map[string]handler) {
	c := newCodec(rw)
	for {
		method, seq, errMsg, err := c.readFrame()
		if err != nil || len(errMsg) > 0 {
			return
		}
		var reply message
		if h := table[string(method)]; h != nil {
			reply, err = h(&c.body)
		} else {
			err = Errorf(CodeBadRequest, "unknown method %q", method)
		}
		var msg string
		if err != nil {
			msg = err.Error()
		}
		if _, err := rw.Write(c.putFrame("", "", seq, msg, reply)); err != nil {
			return
		}
	}
}

// tcpServer is a served plane's listener and its per-connection goroutines,
// owned so that close stops everything (the seed's lease server leaked its
// per-connection goroutines until process exit). Its zero value has served
// nothing and closes as a no-op.
type tcpServer struct {
	mu     sync.Mutex
	ln     net.Listener
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// serve serves the methods, named within the plane, as service on a fresh
// listener at addr, returning the bound address.
func (t *tcpServer) serve(addr, service string, methods map[string]handler) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	table := make(map[string]handler, len(methods))
	for name, h := range methods {
		table[service+"."+name] = h
	}
	t.mu.Lock()
	t.ln, t.conns = ln, map[net.Conn]struct{}{}
	t.mu.Unlock()
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			t.mu.Lock()
			if t.closed {
				t.mu.Unlock()
				conn.Close()
				return
			}
			t.conns[conn] = struct{}{}
			t.mu.Unlock()
			t.wg.Add(1)
			go func() {
				defer t.wg.Done()
				serveConn(conn, table)
				t.mu.Lock()
				delete(t.conns, conn)
				t.mu.Unlock()
				conn.Close()
			}()
		}
	}()
	return ln.Addr().String(), nil
}

// numConns reports the live connection count (the open-connections gauge).
func (t *tcpServer) numConns() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.conns)
}

// close stops the listener and joins every connection.
func (t *tcpServer) close() error {
	t.mu.Lock()
	if t.closed || t.ln == nil {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	err := t.ln.Close()
	for conn := range t.conns {
		conn.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
	return err
}
