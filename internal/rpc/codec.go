package rpc

// The control plane's frame codec. Every request and response is one frame:
// a uvarint length, then the header (method, seq, error string) and the
// body, all in package wire's encoding. A body is its message's fields in
// declaration order with no type descriptors, so both ends must agree on each
// method's argument and reply types; ProtocolVersion names that agreement. A
// response leaves the method empty (the caller matches replies by seq), and
// an error response carries no body. A field added to a message must be added
// to its putWire and readWire: TestMessageCodecCarriesEveryField fills every
// field of every message and fails otherwise.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"strings"
	"time"

	"gavel/internal/core"
	"gavel/internal/lp"
	"gavel/internal/policy"
	"gavel/internal/scheduler"
	"gavel/internal/wire"
)

// message is what the codec moves: every argument and reply of the shard,
// submit and lease planes. readWire overwrites the whole value, leaves any
// error in r, and copies everything out of r's bytes.
type message interface {
	putWire(w *wire.Writer)
	readWire(r *wire.Reader)
}

// codec frames one end of a control-plane connection. Its owner reads and
// writes from one goroutine at a time (a call holds the client's lock; a
// server runs one goroutine per connection), so the buffers need no lock.
type codec struct {
	br    *bufio.Reader
	frame []byte      // the frame being read, or the last one read; reused
	need  uint64      // bytes of the frame being read not yet read
	shift uint        // bits of its length read so far, while sizing
	sized bool        // its length is read and need counts its bytes
	body  wire.Reader // what of frame follows its header
	out   wire.Writer // the frame being written, reused
}

func newCodec(r io.Reader) *codec { return &codec{br: bufio.NewReader(r)} }

// readFrame reads the next frame and decodes its header; method and errMsg
// alias the frame. A read error (a deadline) keeps what was read, and the
// next call resumes the frame there. The length is the peer's claim, so the
// buffer grows only as bytes arrive, at most doubling per read: a lying
// length costs no more memory than the bytes actually sent.
func (c *codec) readFrame() (method []byte, seq uint64, errMsg []byte, err error) {
	for !c.sized {
		b, err := c.br.ReadByte()
		if err != nil {
			return nil, 0, nil, err
		}
		if c.shift == 63 && b > 1 {
			return nil, 0, nil, errors.New("rpc: frame length overflows 64 bits")
		}
		c.need |= uint64(b&0x7f) << c.shift
		c.shift += 7
		if b < 0x80 {
			c.sized, c.frame = true, c.frame[:0]
		}
	}
	for c.need > 0 {
		buf := c.frame
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, int(min(c.need, uint64(max(len(buf), c.br.Size())))))
		}
		k, err := c.br.Read(buf[len(buf):min(uint64(cap(buf)), uint64(len(buf))+c.need)])
		c.frame, c.need = buf[:len(buf)+k], c.need-uint64(k)
		if err != nil {
			return nil, 0, nil, err
		}
	}
	c.sized, c.shift = false, 0
	c.body = wire.NewReader(c.frame)
	method, seq, errMsg = c.body.Bytes(), c.body.Uint(), c.body.Bytes()
	return method, seq, errMsg, c.body.Err()
}

// readBody decodes the frame's body into m.
func (c *codec) readBody(m message) error {
	m.readWire(&c.body)
	return c.body.Finish()
}

// putFrame encodes one frame, its method written as prefix+method, behind
// room for its length, and returns its bytes for one Write. An error
// response carries no body.
func (c *codec) putFrame(prefix, method string, seq uint64, errMsg string, body message) []byte {
	var head [binary.MaxVarintLen64]byte
	c.out = append(c.out[:0], head[:]...)
	c.out.Uint(uint64(len(prefix) + len(method)))
	c.out = append(append(c.out, prefix...), method...)
	c.out.Uint(seq)
	c.out.Str(errMsg)
	if errMsg == "" {
		body.putWire(&c.out)
	}
	k := binary.PutUvarint(head[:], uint64(len(c.out)-len(head)))
	start := len(head) - k
	copy(c.out[start:], head[:k])
	return c.out[start:]
}

// readSlice reads a count of elements that take at least size bytes each
// encoded, then each element; a zero count reads as nil.
func readSlice[T any](r *wire.Reader, size int, read func(*T)) []T {
	n := r.CountOf(size)
	if n == 0 {
		return nil
	}
	v := make([]T, n)
	for i := range v {
		read(&v[i])
	}
	return v
}

func putSlice[T any](w *wire.Writer, v []T, put func(*T)) {
	w.Uint(uint64(len(v)))
	for i := range v {
		put(&v[i])
	}
}

// The handshake and the empty messages.

func (m *HelloArgs) putWire(w *wire.Writer)   { w.Int(m.Version); w.Str(m.Role) }
func (m *HelloArgs) readWire(r *wire.Reader)  { *m = HelloArgs{Version: r.Int(), Role: r.Str()} }
func (m *HelloReply) putWire(w *wire.Writer)  { w.Int(m.Version) }
func (m *HelloReply) readWire(r *wire.Reader) { *m = HelloReply{Version: r.Int()} }
func (*Ack) putWire(*wire.Writer)             {}
func (*Ack) readWire(*wire.Reader)            {}
func (*SnapshotArgs) putWire(*wire.Writer)    {}
func (*SnapshotArgs) readWire(*wire.Reader)   {}
func (*StatusArgs) putWire(*wire.Writer)      {}
func (*StatusArgs) readWire(*wire.Reader)     {}

// The shard plane.

func (m *ShardConfig) putWire(w *wire.Writer) {
	w.Int(m.Index)
	w.Ints(m.WorkerInts)
	w.Ints(m.PerServer)
	w.Floats(m.Prices)
	w.Str(m.Policy.Name)
	w.Bool(m.Policy.EnforceSLOs)
	w.Bool(m.ColdSolves)
	w.Float(m.PairGainThreshold)
	w.Int(m.MaxPairsPerJob)
}

func (m *ShardConfig) readWire(r *wire.Reader) {
	*m = ShardConfig{Index: r.Int(), WorkerInts: r.Ints(), PerServer: r.Ints(), Prices: r.Floats(),
		Policy: PolicySpec{Name: r.Str(), EnforceSLOs: r.Bool()}, ColdSolves: r.Bool(),
		PairGainThreshold: r.Float(), MaxPairsPerJob: r.Int()}
}

func (m *InstallArgs) putWire(w *wire.Writer) {
	w.Str(m.Trace)
	w.Int(m.JobID)
	w.Int(m.ScaleFactor)
	w.Floats(m.Tput)
	putSlice(w, m.Pairs, func(p *PairRows) { w.Int(p.A); w.Int(p.B); w.Floats(p.Ta); w.Floats(p.Tb) })
	putSeeds(w, m.Seeds)
	w.Bool(m.Migrated)
}

func (m *InstallArgs) readWire(r *wire.Reader) {
	*m = InstallArgs{Trace: r.Str(), JobID: r.Int(), ScaleFactor: r.Int(), Tput: r.Floats(),
		Pairs: readSlice(r, 4, func(p *PairRows) { *p = PairRows{A: r.Int(), B: r.Int(), Ta: r.Floats(), Tb: r.Floats()} }),
		Seeds: readSeeds(r), Migrated: r.Bool()}
}

func (m *RemoveArgs) putWire(w *wire.Writer)   { w.Str(m.Trace); w.Int(m.JobID) }
func (m *RemoveArgs) readWire(r *wire.Reader)  { *m = RemoveArgs{Trace: r.Str(), JobID: r.Int()} }
func (m *ExtractArgs) putWire(w *wire.Writer)  { w.Str(m.Trace); w.Int(m.JobID) }
func (m *ExtractArgs) readWire(r *wire.Reader) { *m = ExtractArgs{Trace: r.Str(), JobID: r.Int()} }

func (m *ExtractReply) putWire(w *wire.Writer) {
	w.Int(m.ScaleFactor)
	w.Floats(m.Tput)
	putSeeds(w, m.Seeds)
}

func (m *ExtractReply) readWire(r *wire.Reader) {
	*m = ExtractReply{ScaleFactor: r.Int(), Tput: r.Floats(), Seeds: readSeeds(r)}
}

func (m *AllocateArgs) putWire(w *wire.Writer) {
	w.Str(m.Trace)
	w.Int64(m.Round)
	putSlice(w, m.Infos, func(ji *policy.JobInfo) {
		w.Int(ji.ID)
		w.Float(ji.Weight)
		w.Float(ji.Priority)
		w.Int(ji.ScaleFactor)
		w.Floats(ji.Tput)
		w.Float(ji.RemainingSteps)
		w.Float(ji.TotalSteps)
		w.Float(ji.Elapsed)
		w.Float(ji.SLORemaining)
		w.Int(ji.ArrivalSeq)
		w.Int(ji.Entity)
		w.Int(ji.NumActiveJobs)
	})
}

func (m *AllocateArgs) readWire(r *wire.Reader) {
	*m = AllocateArgs{Trace: r.Str(), Round: r.Int64()}
	m.Infos = readSlice(r, 12, func(ji *policy.JobInfo) {
		*ji = policy.JobInfo{ID: r.Int(), Weight: r.Float(), Priority: r.Float(), ScaleFactor: r.Int(),
			Tput: r.Floats(), RemainingSteps: r.Float(), TotalSteps: r.Float(), Elapsed: r.Float(),
			SLORemaining: r.Float(), ArrivalSeq: r.Int(), Entity: r.Int(), NumActiveJobs: r.Int()}
	})
}

// putWire writes the allocation the journal's recAlloc record embeds.
func (m *AllocateReply) putWire(w *wire.Writer) {
	w.Ints(m.IDs)
	putSlice(w, m.Units, func(u *core.Unit) {
		w.Ints(u.Jobs)
		putRows(w, u.Tput)
		w.Str(u.Key)
	})
	putRows(w, m.X)
}

func putRows(w *wire.Writer, rows [][]float64) {
	w.Uint(uint64(len(rows)))
	for _, row := range rows {
		w.Floats(row)
	}
}

// readWire makes four allocations beyond IDs and Units, however many units
// and rows there are: one slab each for the units' job lists, for their
// throughput rows and the X rows, for those rows' values, and for the unit
// keys. A first pass over a copy of r sizes the slabs.
func (m *AllocateReply) readWire(r *wire.Reader) {
	*m = AllocateReply{IDs: r.Ints()}
	scan := *r
	var ints, rows, vals, keys int
	skipRows := func() {
		k := scan.Count()
		rows += k
		for range k {
			n := scan.Count()
			vals += n
			for range n {
				scan.Float()
			}
		}
	}
	for range scan.CountOf(3) {
		n := scan.Count()
		ints += n
		for range n {
			scan.Int()
		}
		skipRows()
		keys += len(scan.Bytes())
	}
	skipRows()
	if err := scan.Err(); err != nil {
		r.Fail(err)
		return
	}

	intSlab, rowSlab, valSlab := make([]int, ints), make([][]float64, rows), make([]float64, vals)
	var keySlab strings.Builder
	keySlab.Grow(keys)
	readRows := func() [][]float64 {
		v := take(&rowSlab, r.Count())
		for i := range v {
			v[i] = take(&valSlab, r.Count())
			for j := range v[i] {
				v[i][j] = r.Float()
			}
		}
		return v
	}
	m.Units = readSlice(r, 3, func(u *core.Unit) {
		u.Jobs = take(&intSlab, r.Count())
		for j := range u.Jobs {
			u.Jobs[j] = r.Int()
		}
		u.Tput = readRows()
		start := keySlab.Len()
		keySlab.Write(r.Bytes())
		u.Key = keySlab.String()[start:]
	})
	m.X = readRows()
}

// take cuts the next n elements off a slab, capped so that an append to one
// cannot overwrite the next; n == 0 takes nil, as a zero count reads.
func take[T any](slab *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	v := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return v
}

func (m *AssignRoundArgs) putWire(w *wire.Writer) {
	w.Str(m.Trace)
	w.Int64(m.Round)
	w.Float(m.RoundSeconds)
	w.Ints(m.SkipJobs)
}

func (m *AssignRoundArgs) readWire(r *wire.Reader) {
	*m = AssignRoundArgs{Trace: r.Str(), Round: r.Int64(), RoundSeconds: r.Float(), SkipJobs: r.Ints()}
}

func (m *AssignRoundReply) putWire(w *wire.Writer) {
	putSlice(w, m.Assigns, func(a *scheduler.Assignment) {
		w.Int(a.UnitIdx)
		w.Int(a.Type)
		w.Bool(a.Consolidated)
		w.Int(a.Server)
	})
}

func (m *AssignRoundReply) readWire(r *wire.Reader) {
	*m = AssignRoundReply{Assigns: readSlice(r, 4, func(a *scheduler.Assignment) {
		*a = scheduler.Assignment{UnitIdx: r.Int(), Type: r.Int(), Consolidated: r.Bool(), Server: r.Int()}
	})}
}

func (m *ObserveArgs) putWire(w *wire.Writer) {
	w.Str(m.Trace)
	putSlice(w, m.Obs, func(o *PairObservation) { w.Int(o.A); w.Int(o.B); w.Int(o.Type); w.Float(o.Ta); w.Float(o.Tb) })
}

func (m *ObserveArgs) readWire(r *wire.Reader) {
	*m = ObserveArgs{Trace: r.Str(), Obs: readSlice(r, 5, func(o *PairObservation) {
		*o = PairObservation{A: r.Int(), B: r.Int(), Type: r.Int(), Ta: r.Float(), Tb: r.Float()}
	})}
}

func (m *ObserveJobArgs) putWire(w *wire.Writer) { w.Str(m.Trace); w.Int(m.JobID); w.Floats(m.Tput) }

func (m *ObserveJobArgs) readWire(r *wire.Reader) {
	*m = ObserveJobArgs{Trace: r.Str(), JobID: r.Int(), Tput: r.Floats()}
}

// putWire writes the snapshot the journal's recSnapshot record embeds.
func (m *SnapshotReply) putWire(w *wire.Writer) {
	putSeeds(w, m.Seeds)
	m.Status.putWire(w)
}

func (m *SnapshotReply) readWire(r *wire.Reader) {
	*m = SnapshotReply{Seeds: readSeeds(r)}
	m.Status.readWire(r)
}

func putSeeds(w *wire.Writer, seeds []policy.Seed) {
	putSlice(w, seeds, func(s *policy.Seed) {
		w.Str(s.Label)
		wire.PutStrings(w, s.IDs)
		w.Bool(s.Basis != nil)
		if s.Basis != nil {
			s.Basis.WriteWire(w)
		}
	})
}

func readSeeds(r *wire.Reader) []policy.Seed {
	return readSlice(r, 3, func(s *policy.Seed) {
		*s = policy.Seed{Label: r.Str(), IDs: wire.Strings[lp.ColumnID](r)}
		if r.Bool() {
			s.Basis = new(lp.Basis)
			s.Basis.ReadWire(r)
		}
	})
}

func (m *ShardStatus) putWire(w *wire.Writer) {
	w.Int(m.Index)
	w.Ints(m.Jobs)
	w.Int(m.Admitted)
	w.Int(m.MigratedIn)
	w.Int(m.MigratedOut)
	w.Int(m.PolicyCalls)
	w.Int64(int64(m.PolicyTime))
	s := &m.Solve
	for _, v := range [...]int{s.Solves, s.WarmAttempts, s.WarmHits, s.RemapAttempts, s.RemapHits,
		s.Iterations, s.Pivots, s.Fallbacks, s.PresolveReductions, s.DualIterations, s.Refactorizations} {
		w.Int(v)
	}
}

func (m *ShardStatus) readWire(r *wire.Reader) {
	*m = ShardStatus{Index: r.Int(), Jobs: r.Ints(), Admitted: r.Int(), MigratedIn: r.Int(),
		MigratedOut: r.Int(), PolicyCalls: r.Int(), PolicyTime: time.Duration(r.Int64())}
	s := &m.Solve
	for _, p := range [...]*int{&s.Solves, &s.WarmAttempts, &s.WarmHits, &s.RemapAttempts, &s.RemapHits,
		&s.Iterations, &s.Pivots, &s.Fallbacks, &s.PresolveReductions, &s.DualIterations, &s.Refactorizations} {
		*p = r.Int()
	}
}

// The lease plane.

func (m *RegisterArgs) putWire(w *wire.Writer) {
	w.Int(m.Version)
	w.Str(m.Addr)
	w.Str(m.AcceleratorType)
	w.Str(m.Server)
}

func (m *RegisterArgs) readWire(r *wire.Reader) {
	*m = RegisterArgs{Version: r.Int(), Addr: r.Str(), AcceleratorType: r.Str(), Server: r.Str()}
}

func (m *RegisterReply) putWire(w *wire.Writer) {
	w.Int(m.Version)
	w.Int(m.WorkerID)
	w.Float(m.RoundSeconds)
}

func (m *RegisterReply) readWire(r *wire.Reader) {
	*m = RegisterReply{Version: r.Int(), WorkerID: r.Int(), RoundSeconds: r.Float()}
}

func (m *LeaseArgs) putWire(w *wire.Writer)  { w.Int(m.WorkerID) }
func (m *LeaseArgs) readWire(r *wire.Reader) { *m = LeaseArgs{WorkerID: r.Int()} }

func (m *Lease) putWire(w *wire.Writer) {
	w.Ints(m.JobIDs)
	w.Float(m.RoundSeconds)
	w.Bool(m.Renewed)
	w.Bool(m.Empty)
}

func (m *Lease) readWire(r *wire.Reader) {
	*m = Lease{JobIDs: r.Ints(), RoundSeconds: r.Float(), Renewed: r.Bool(), Empty: r.Bool()}
}

func (m *ThroughputReport) putWire(w *wire.Writer) {
	w.Int(m.WorkerID)
	w.Int(m.JobID)
	w.Float(m.StepsPerSecond)
}

func (m *ThroughputReport) readWire(r *wire.Reader) {
	*m = ThroughputReport{WorkerID: r.Int(), JobID: r.Int(), StepsPerSecond: r.Float()}
}

// The submission plane.

func (m *SubmitArgs) putWire(w *wire.Writer) {
	w.Str(m.Tenant)
	w.Str(m.Key)
	w.Str(m.Name)
	w.Float(m.TotalSteps)
	w.Int(m.ScaleFactor)
	w.Floats(m.Tput)
	w.Int(m.SLOClass)
}

func (m *SubmitArgs) readWire(r *wire.Reader) {
	*m = SubmitArgs{Tenant: r.Str(), Key: r.Str(), Name: r.Str(), TotalSteps: r.Float(),
		ScaleFactor: r.Int(), Tput: r.Floats(), SLOClass: r.Int()}
}

func (m *SubmitReply) putWire(w *wire.Writer) { w.Int(m.JobID); w.Int(int(m.State)) }

func (m *SubmitReply) readWire(r *wire.Reader) {
	*m = SubmitReply{JobID: r.Int(), State: SubmissionState(r.Int())}
}

func (m *WithdrawArgs) putWire(w *wire.Writer)   { w.Str(m.Tenant); w.Str(m.Key) }
func (m *WithdrawArgs) readWire(r *wire.Reader)  { *m = WithdrawArgs{Tenant: r.Str(), Key: r.Str()} }
func (m *WithdrawReply) putWire(w *wire.Writer)  { w.Int(int(m.State)) }
func (m *WithdrawReply) readWire(r *wire.Reader) { *m = WithdrawReply{State: SubmissionState(r.Int())} }
func (m *PollArgs) putWire(w *wire.Writer)       { w.Str(m.Tenant); w.Str(m.Key) }
func (m *PollArgs) readWire(r *wire.Reader)      { *m = PollArgs{Tenant: r.Str(), Key: r.Str()} }

func (m *PollReply) putWire(w *wire.Writer) {
	w.Int(m.JobID)
	w.Int(int(m.State))
	w.Int(m.Shard)
	w.Int64(m.Round)
}

func (m *PollReply) readWire(r *wire.Reader) {
	*m = PollReply{JobID: r.Int(), State: SubmissionState(r.Int()), Shard: r.Int(), Round: r.Int64()}
}
