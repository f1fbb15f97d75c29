package rpc

// Socket-level tests of the transport's contract: a late reply is read past
// by seq, a bad request costs the connection nothing, one connection's
// requests are served in the order sent, and callers sharing a connection
// take turns.

import (
	"fmt"
	"net"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestLateReplyIsDiscarded: a call whose deadline expires returns CodeTimeout
// and leaves the connection usable; the next call on it gets its own reply,
// not the late one, wherever the deadline cut the late reply — before its
// first byte, inside its two-byte length prefix, or inside its body.
func TestLateReplyIsDiscarded(t *testing.T) {
	late := Lease{JobIDs: make([]int, 100), RoundSeconds: 1}
	for i := range late.JobIDs {
		late.JobIDs[i] = 1000 + i
	}
	for _, cut := range []int{0, 1, 60} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			release, served := make(chan struct{}), make(chan error, 1)
			go func() {
				served <- func() error {
					nc, err := ln.Accept()
					if err != nil {
						return err
					}
					defer nc.Close()
					sc, out := newCodec(nc), newCodec(nil)
					_, seq, _, err := sc.readFrame()
					if err != nil {
						return err
					}
					first := slices.Clone(out.putFrame("", "", seq, "", &late))
					if first[0]&0x80 == 0 || first[1]&0x80 != 0 {
						return fmt.Errorf("the late reply's length prefix is not two bytes: % x", first[:2])
					}
					if _, err := nc.Write(first[:cut]); err != nil {
						return err
					}
					<-release
					if _, seq, _, err = sc.readFrame(); err != nil {
						return err
					}
					_, err = nc.Write(append(first[cut:], out.putFrame("", "", seq, "", &Lease{JobIDs: []int{7}})...))
					return err
				}()
			}()

			c, err := dial(ln.Addr().String(), leaseServiceName, 300*time.Millisecond, CodeUnavailable)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var l Lease
			err = c.call("LeaseMicroTask", &LeaseArgs{}, &l)
			close(release)
			if CodeOf(err) != CodeTimeout {
				t.Fatalf("first call: %v, want CodeTimeout", err)
			}
			if read := len(c.codec.frame) + int(c.codec.shift/7); read == 0 && cut > 0 {
				t.Fatalf("the deadline expired before any of the %d late bytes were read", cut)
			}
			c.timeout = 10 * time.Second
			if err := c.call("LeaseMicroTask", &LeaseArgs{}, &l); err != nil {
				t.Fatalf("call after a timeout: %v", err)
			}
			if !reflect.DeepEqual(l.JobIDs, []int{7}) {
				t.Fatalf("call after a timeout got jobs %v, want its own reply's [7]", l.JobIDs)
			}
			if err := <-served; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBadRequestKeepsConnection: an unknown method, and a known one whose
// arguments do not decode, each get a CodeBadRequest reply; the same
// connection then serves a good call.
func TestBadRequestKeepsConnection(t *testing.T) {
	srv := NewShardServer()
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := dial(addr, shardServiceName, 10*time.Second, CodeShardDown)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.call("Reboot", &StatusArgs{}, &Ack{}); CodeOf(err) != CodeBadRequest {
		t.Fatalf("unknown method: %v, want CodeBadRequest", err)
	}
	if err := c.call("Extract", &HelloArgs{Version: 3, Role: "not what Extract takes"}, &ExtractReply{}); CodeOf(err) != CodeBadRequest {
		t.Fatalf("undecodable arguments: %v, want CodeBadRequest", err)
	}
	var reply HelloReply
	if err := c.call("Hello", &HelloArgs{Version: ProtocolVersion}, &reply); err != nil || reply.Version != ProtocolVersion {
		t.Fatalf("Hello after the bad requests: %+v, %v", reply, err)
	}
	if n := srv.tcp.numConns(); n != 1 {
		t.Fatalf("%d connections served, want the one still open", n)
	}
}

// TestRequestsServedInOrder: requests pipelined on one connection are
// answered in the order sent, each after the one before it has run: a Status
// sent behind twenty Installs sees all twenty jobs.
func TestRequestsServedInOrder(t *testing.T) {
	srv := NewShardServer()
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	cc := newCodec(nc)
	var reqs []byte
	var sent []uint64
	put := func(method string, args message) {
		sent = append(sent, uint64(len(sent)+1))
		reqs = append(reqs, cc.putFrame(shardServiceName+".", method, sent[len(sent)-1], "", args)...)
	}
	put("Configure", &ShardConfig{WorkerInts: []int{2, 2}, PerServer: []int{1, 1}, Prices: []float64{1, 1},
		Policy: PolicySpec{Name: "max_min_fairness"}})
	var want []int
	for id := range 20 {
		put("Install", &InstallArgs{JobID: id, ScaleFactor: 1, Tput: []float64{1, 2}})
		want = append(want, id)
	}
	put("Status", &StatusArgs{})
	if _, err := nc.Write(reqs); err != nil { // every request in flight at once
		t.Fatal(err)
	}
	var got []uint64
	for range sent {
		_, seq, errMsg, err := cc.readFrame()
		if err != nil || len(errMsg) > 0 {
			t.Fatalf("reply %d: %q, %v", len(got)+1, errMsg, err)
		}
		got = append(got, seq)
	}
	if !slices.Equal(got, sent) {
		t.Fatalf("replies came back as seqs %v, sent %v", got, sent)
	}
	var st ShardStatus
	if err := cc.readBody(&st); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(st.Jobs, want) {
		t.Fatalf("Status behind 20 Installs saw jobs %v", st.Jobs)
	}
}

// TestCallersShareAConnection: goroutines calling on one client take turns
// on its connection, each getting its own reply.
func TestCallersShareAConnection(t *testing.T) {
	srv := NewShardServer()
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := dial(addr, shardServiceName, 10*time.Second, CodeShardDown)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				ok := (g+i)%2 == 0 // the odd calls name a version the server refuses
				var reply HelloReply
				err := c.call("Hello", &HelloArgs{Version: ProtocolVersion - (g+i)%2}, &reply)
				if ok != (err == nil) || ok && reply.Version != ProtocolVersion {
					t.Errorf("goroutine %d call %d: %+v, %v", g, i, reply, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
