package rpc

import (
	"bytes"
	"maps"
	gorpc "net/rpc"
	"reflect"
	"slices"
	"testing"
	"time"

	"gavel/internal/policy"
)

// codecRoundTrip sends m as a request from a client codec to a server codec
// and back as the response, decoding each into a fresh value of m's type. It
// returns the request's decoding, the server codec that holds its frame, and
// fails unless the response decodes to the same value.
func codecRoundTrip(t testing.TB, m any) (any, *codec) {
	t.Helper()
	var conn bytes.Buffer // what one codec writes, the other reads
	cc, sc := newCodec(&conn), newCodec(&conn)
	conn.Write(cc.putFrame("GavelShard.", "Test", 9, "", m.(message)))
	method, seq, errMsg, err := sc.readFrame()
	if err != nil || string(method) != "GavelShard.Test" || seq != 9 || len(errMsg) > 0 {
		t.Fatalf("%T: request header %q %d %q, err %v", m, method, seq, errMsg, err)
	}
	got := reflect.New(reflect.TypeOf(m).Elem()).Interface()
	if err := sc.readBody(got.(message)); err != nil {
		t.Fatalf("%T: read request body: %v", m, err)
	}
	conn.Write(sc.putFrame("", "", 9, "", m.(message)))
	if method, seq, errMsg, err := cc.readFrame(); err != nil || len(method) > 0 || seq != 9 || len(errMsg) > 0 {
		t.Fatalf("%T: response header %q %d %q, err %v", m, method, seq, errMsg, err)
	}
	back := reflect.New(reflect.TypeOf(m).Elem()).Interface()
	if err := cc.readBody(back.(message)); err != nil {
		t.Fatalf("%T: read response body: %v", m, err)
	}
	if !reflect.DeepEqual(back, got) {
		t.Fatalf("%T decodes differently as a request and as a response", m)
	}
	if conn.Len() != 0 {
		t.Fatalf("%T: %d bytes left unread", m, conn.Len())
	}
	return got, sc
}

// servedPlanes is each plane's service name and its (zero) receiver.
var servedPlanes = map[string]interface{ handlers() map[string]handler }{
	shardServiceName: &ShardServer{}, submitServiceName: &SubmitServer{}, leaseServiceName: &schedulerRPC{},
}

// servedMethods maps every method the three planes serve to its argument and
// reply types, read off the receiver's method of the name its table serves.
func servedMethods() map[string][2]reflect.Type {
	out := map[string][2]reflect.Type{}
	for service, rcvr := range servedPlanes {
		for name := range rcvr.handlers() {
			m, _ := reflect.TypeOf(rcvr).MethodByName(name)
			out[service+"."+name] = [2]reflect.Type{m.Type.In(1), m.Type.In(2).Elem()}
		}
	}
	return out
}

// TestEveryProtocolMethodIsServed: each plane's table serves exactly its
// receiver's methods of the shape func(args, *reply) error, so a method added
// to a plane without a table entry fails here rather than in a daemon.
func TestEveryProtocolMethodIsServed(t *testing.T) {
	for service, rcvr := range servedPlanes {
		typ := reflect.TypeOf(rcvr)
		var shaped []string
		for i := range typ.NumMethod() {
			m := typ.Method(i)
			if mt := m.Type; mt.NumIn() == 3 && mt.NumOut() == 1 && mt.Out(0) == reflect.TypeFor[error]() && mt.In(2).Kind() == reflect.Pointer {
				shaped = append(shaped, m.Name)
			}
		}
		served := slices.Sorted(maps.Keys(rcvr.handlers()))
		if !slices.Equal(served, shaped) {
			t.Errorf("%s serves %v, its protocol methods are %v", service, served, shaped)
		}
	}
}

// wireMessages returns a fresh value of every argument and reply type the
// three served planes declare.
func wireMessages() []any {
	seen := map[reflect.Type]bool{}
	var out []any
	for _, types := range servedMethods() {
		for _, t := range types {
			if !seen[t] {
				seen[t] = true
				out = append(out, reflect.New(t).Interface())
			}
		}
	}
	return out
}

// filledMessages is every wire message with every field, down to lp.Basis's
// unexported state, set to a distinct non-zero value.
func filledMessages(t testing.TB) []any {
	msgs := wireMessages()
	if len(msgs) != 18+5+6 {
		t.Fatalf("%d wire messages, want the shard plane's 18, the lease plane's 5 and the submission plane's 6", len(msgs))
	}
	n := 0
	for _, m := range msgs {
		fillAll(t, reflect.ValueOf(m).Elem(), &n)
	}
	return msgs
}

// TestMessageCodecCarriesEveryField: every message of the three planes, each
// field filled, comes back deeply equal as a request and as a response, so a
// field added without codec support fails here rather than in a daemon.
func TestMessageCodecCarriesEveryField(t *testing.T) {
	for _, m := range filledMessages(t) {
		if got, _ := codecRoundTrip(t, m); !reflect.DeepEqual(got, m) {
			t.Errorf("%T did not survive the codec:\n got %+v\nwant %+v", m, got, m)
		}
	}
}

// TestDecodedMessagesOwnTheirBytes: the codec reuses its frame buffer, so a
// decoded message must hold none of it — overwriting the frame after the
// decode leaves every message unchanged.
func TestDecodedMessagesOwnTheirBytes(t *testing.T) {
	for _, m := range filledMessages(t) {
		got, sc := codecRoundTrip(t, m)
		frame := sc.frame[:cap(sc.frame)]
		for i := range frame {
			frame[i] = 0xee
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%T changed when its frame buffer was overwritten", m)
		}
	}
}

// TestGobPeerRefusedAtFirstFrame: a protocol-4 peer (net/rpc's default gob
// client) sending Hello to this build's shard server gets an error promptly,
// not a hang, and the server drops the connection and its goroutines.
func TestGobPeerRefusedAtFirstFrame(t *testing.T) {
	srv := NewShardServer()
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := gorpc.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	call := c.Go("GavelShard.Hello", HelloArgs{Version: 4, Role: "test"}, new(HelloReply), nil)
	select {
	case <-call.Done:
		if call.Error == nil {
			t.Fatal("a gob peer's Hello succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a gob peer's Hello was neither answered nor refused within 5s")
	}
	for deadline := time.Now().Add(5 * time.Second); srv.tcp.numConns() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d connections still served 5s after the refusal", srv.tcp.numConns())
		}
	}
}

// loopbackShard serves a configured shard holding 40 jobs and their round-1
// allocation on loopback, and dials it with no deadline and no retries. It
// returns the client and the round's AllocateArgs.
func loopbackShard(tb testing.TB) (ShardClient, AllocateArgs) {
	srv := NewShardServer()
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	c, err := DialShardWith(addr, CallPolicy{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	err = c.Configure(ShardConfig{WorkerInts: []int{8, 8, 8}, PerServer: []int{4, 4, 4}, Prices: []float64{3, 2, 1},
		Policy: PolicySpec{Name: "max_min_fairness"}})
	if err != nil {
		tb.Fatal(err)
	}
	args := AllocateArgs{Round: 1}
	for id := range 40 {
		tput := []float64{3 + float64(id%5), 2, 1}
		if err := c.Install(InstallArgs{JobID: id, ScaleFactor: 1, Tput: tput}); err != nil {
			tb.Fatal(err)
		}
		args.Infos = append(args.Infos, policy.JobInfo{ID: id, Weight: 1, ScaleFactor: 1, Tput: tput,
			RemainingSteps: 1e4, TotalSteps: 1e4, ArrivalSeq: id, Entity: -1})
	}
	if _, err := c.Allocate(args); err != nil {
		tb.Fatal(err)
	}
	return c, args
}

// observeJobAllocCeiling holds a steady-state loopback ObserveJob, client and
// server together, near what the synchronous transport measures (4 objects;
// net/rpc over the same codec: 11; net/rpc over gob: 19).
const observeJobAllocCeiling = 5

// TestObserveJobAllocs holds one loopback ObserveJob round trip to its
// allocation ceiling.
func TestObserveJobAllocs(t *testing.T) {
	c, _ := loopbackShard(t)
	row := []float64{4, 2, 1}
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.ObserveJob(ObserveJobArgs{JobID: 3, Tput: row}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocations per loopback ObserveJob (ceiling %d)", allocs, observeJobAllocCeiling)
	if allocs > observeJobAllocCeiling {
		t.Fatalf("%.1f allocations per loopback ObserveJob, ceiling %d", allocs, observeJobAllocCeiling)
	}
}

// BenchmarkShardCall is one loopback call of the round's three most frequent
// shapes: the clamp push, the mechanism round, and an Allocate answered from
// the reply cache (40 jobs in, their allocation back).
func BenchmarkShardCall(b *testing.B) {
	c, args := loopbackShard(b)
	row := []float64{4, 2, 1}
	b.Run("ObserveJob", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if err := c.ObserveJob(ObserveJobArgs{JobID: 3, Tput: row}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("AssignRound", func(b *testing.B) {
		b.ReportAllocs()
		round := int64(1)
		for b.Loop() {
			round++
			if _, err := c.AssignRound(AssignRoundArgs{Round: round, RoundSeconds: 360}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("AllocateCached", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := c.Allocate(args); err != nil {
				b.Fatal(err)
			}
		}
	})
}
