package rpc

// Chaos-seeded fuzzing of the protocol's parsing surfaces: the typed-error
// wire format (which must survive crossing the wire as a string), the
// version handshake, the control plane's frame codec and the journal reader.
// `go test` runs the seed corpus as unit tests; `go test -fuzz` explores
// further.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	gorpc "net/rpc"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"gavel/internal/wire"
)

// FuzzParseError: ParseError must be total — any string round-trips to some
// error without panicking — and wire-formatted errors must round-trip their
// code and message exactly.
func FuzzParseError(f *testing.F) {
	f.Add("gavelrpc[3]: shard 1 is down")
	f.Add("gavelrpc[999]: unknown code")
	f.Add("gavelrpc[-1]: negative")
	f.Add("gavelrpc[]: empty")
	f.Add("gavelrpc[3x]: trailing junk")
	f.Add("plain error text")
	f.Add("")
	f.Add("gavelrpc[")
	f.Add("gavelrpc[18446744073709551616]: overflow")
	f.Fuzz(func(t *testing.T, s string) {
		err := ParseError(errors.New(s))
		if err == nil {
			t.Fatal("ParseError returned nil for a non-nil error")
		}
		_ = CodeOf(err) // must not panic either
	})
}

// FuzzErrorRoundTrip: every code crossing the wire as a flattened string
// must parse back to the same code and message.
func FuzzErrorRoundTrip(f *testing.F) {
	f.Add(int64(3), "shard 1 is down")
	f.Add(int64(0), "")
	f.Add(int64(12), "msg with ]: brackets [7] inside")
	f.Add(int64(10), "allocate: a\nb")
	f.Add(int64(-9), "negative code")
	f.Fuzz(func(t *testing.T, code int64, msg string) {
		if strings.ContainsAny(msg, "\x00") {
			return
		}
		orig := Errorf(ErrorCode(code), "%s", msg)
		// A server-side error crosses the wire as its string.
		flattened := errors.New(orig.Error())
		parsed := ParseError(flattened)
		if CodeOf(parsed) != ErrorCode(code) {
			t.Fatalf("code %d flattened to %q reparsed as %d", code, orig.Error(), CodeOf(parsed))
		}
	})
}

// TestTypedErrorWithNewlineKeepsItsCode: a message spanning lines (a shard
// error wrapping a multi-line report) parses back to its code and message.
func TestTypedErrorWithNewlineKeepsItsCode(t *testing.T) {
	flattened := errors.New(Errorf(CodeInternal, "allocate: %s", "a\nb").Error())
	if p := ParseError(flattened); p.Code != CodeInternal || p.Msg != "allocate: a\nb" {
		t.Fatalf("parsed %+v, want code %v and the two-line message", p, CodeInternal)
	}
}

// FuzzCheckVersion: the handshake must reject mismatches with a typed error
// and never panic, whatever version a peer claims.
func FuzzCheckVersion(f *testing.F) {
	f.Add(0)
	f.Add(ProtocolVersion)
	f.Add(-1)
	f.Add(1 << 40)
	f.Fuzz(func(t *testing.T, v int) {
		err := CheckVersion(v)
		if v == ProtocolVersion {
			if err != nil {
				t.Fatalf("matching version rejected: %v", err)
			}
			return
		}
		if err == nil {
			t.Fatalf("version %d accepted, want mismatch error", v)
		}
		if CodeOf(err) != CodeVersionMismatch {
			t.Fatalf("version %d rejected with code %v, want CodeVersionMismatch", v, CodeOf(err))
		}
	})
}

// FuzzParseSubmitSpec: the submission spec parser must be total — any input
// either parses or fails with a typed CodeBadRequest, never panics — and
// every successful parse must round-trip exactly through SpecString.
func FuzzParseSubmitSpec(f *testing.F) {
	f.Add("tenant=acme,key=job-7,name=resnet50,steps=5000,sf=2,slo=1,tput=120;80;30")
	f.Add("tenant=a,key=k")
	f.Add("tenant=a,key=k,tput=0;0;0")
	f.Add("tenant=a,key=k,steps=1e308")
	f.Add("tenant=,key=")
	f.Add("tenant=a,key=k,steps=NaN")
	f.Add("tenant=a,key=k,tput=1;;2")
	f.Add("steps=5,tenant=a,key=k")
	f.Add(",,,")
	f.Add("tenant=a=b,key=k")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		a, err := ParseSubmitSpec(s)
		if err != nil {
			if CodeOf(err) != CodeBadRequest {
				t.Fatalf("parse %q failed with code %v, want CodeBadRequest", s, CodeOf(err))
			}
			return
		}
		b, err := ParseSubmitSpec(a.SpecString())
		if err != nil {
			t.Fatalf("reparse of %q (from %q) failed: %v", a.SpecString(), s, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("round trip of %q changed:\n first %+v\nsecond %+v", s, a, b)
		}
	})
}

// FuzzReadJournal: readJournal is total over arbitrary bytes — it never
// panics, never claims more intact bytes than it was given, the prefix it
// calls intact is a log that replays to the same records on its own (which is
// what openJournal's truncate-then-append relies on), and every frame it
// accepts re-encodes to the very bytes it was read from.
func FuzzReadJournal(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.wal")
	recs := mixedTestRecords()
	for _, part := range [][]*journalRecord{recs[:11], recs[11:21], recs[21:]} {
		appendRecords(f, path, part...)
	}
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	for _, n := range []int{len(seed), len(seed) - 1, len(seed) / 2, len(seed) / 3, 30, 8, 0} {
		f.Add(seed[:n], false)
		f.Add(seed[:n], true)
	}
	f.Fuzz(func(t *testing.T, data []byte, resum bool) {
		if resum {
			// Make every frame the length words still chain to pass its
			// checksum, so mutated payloads reach the decoder.
			data = append([]byte(nil), data...)
			for off := 0; off+8 <= len(data); {
				n := int(binary.BigEndian.Uint32(data[off:]))
				if n > len(data)-off-8 {
					break
				}
				binary.BigEndian.PutUint32(data[off+4:], crc32.ChecksumIEEE(data[off+8:off+8+n]))
				off += 8 + n
			}
		}
		// replayed reads a log and returns its records framed again by the
		// journal's own append.
		replayed := func(log []byte) (replayStats, []byte) {
			var out bytes.Buffer
			j := &journal{w: bufio.NewWriter(&out)}
			st, _ := readJournal(bytes.NewReader(log), int64(len(log)), func(i int, rec *journalRecord) error {
				if err := j.append(rec); err != nil {
					t.Fatalf("record %d decoded but does not encode: %v", i, err)
				}
				return nil
			})
			j.w.Flush()
			return st, out.Bytes()
		}
		st, framed := replayed(data)
		if st.bytes < 0 || st.bytes > int64(len(data)) {
			t.Fatalf("%d intact bytes claimed of a %d-byte log", st.bytes, len(data))
		}
		if !bytes.Equal(framed, data[:st.bytes]) {
			t.Fatalf("the %d intact bytes re-encode to %d different ones", st.bytes, len(framed))
		}
		if again, _ := replayed(data[:st.bytes]); again != st {
			t.Fatalf("the intact prefix replays differently: %+v, then %+v", st, again)
		}
	})
}

// fuzzConn serves a fixed input and swallows what is written back.
type fuzzConn struct{ *bytes.Reader }

func (fuzzConn) Write(b []byte) (int, error) { return len(b), nil }

// FuzzControlCodec: a server connection is total over arbitrary bytes — it
// never panics, and answers every request whose arguments decode with those
// arguments encoded again as the reply — and what it allocates stays within a
// fixed multiple of the bytes it was given, so a lying frame length or
// element count costs no more memory than the bytes actually sent.
func FuzzControlCodec(f *testing.F) {
	methods := servedMethods()
	var stream bytes.Buffer
	cc := newCodec(&stream)
	for name, types := range methods {
		m := reflect.New(types[0]).Interface().(message)
		n := 0
		fillAll(f, reflect.ValueOf(m).Elem(), &n)
		stream.Write(cc.putFrame("", name, uint64(n), "", m))
	}
	all := stream.Bytes()
	f.Add(all)
	f.Add(all[:len(all)/2])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 1, 2, 3}) // a 2^56-byte frame, 3 bytes sent
	var gobStream bytes.Buffer                                             // a protocol-4 peer's Hello
	enc := gob.NewEncoder(&gobStream)
	if err := enc.Encode(&gorpc.Request{ServiceMethod: "GavelShard.Hello"}); err != nil {
		f.Fatal(err)
	}
	if err := enc.Encode(&HelloArgs{Version: 4, Role: "test"}); err != nil {
		f.Fatal(err)
	}
	f.Add(gobStream.Bytes())
	echo := map[string]handler{}
	for name, types := range methods {
		echo[name] = func(r *wire.Reader) (message, error) {
			m := reflect.New(types[0]).Interface().(message)
			m.readWire(r)
			return m, r.Finish()
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		serveConn(fuzzConn{bytes.NewReader(data)}, echo)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+64<<10); got > limit {
			t.Fatalf("%d bytes of input cost %d bytes of allocation, limit %d", len(data), got, limit)
		}
	})
}
