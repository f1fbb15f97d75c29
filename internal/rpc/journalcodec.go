package rpc

// The journal's record codec. A frame's payload is the record's kind byte
// followed by that kind's fields in declaration order, in package wire's
// encoding (zigzag varints, gob-style floats, length-prefixed strings and
// slices), so every frame decodes on its own. A field added to a record
// struct must be added to both putRecord and recordReader.read:
// TestRecordCodecCarriesEveryField fills every field and fails otherwise.

import (
	"fmt"
	"slices"
	"time"

	"gavel/internal/core"
	"gavel/internal/lp"
	"gavel/internal/policy"
	"gavel/internal/wire"
)

// putRecord appends rec's payload to w.
func putRecord(w *wire.Writer, rec *journalRecord) error {
	w.Byte(byte(rec.Kind))
	switch k := rec.Kind; {
	case k == recConfig && rec.Config != nil:
		c := rec.Config
		w.Int(c.Version)
		w.Int(c.NumShards)
		w.Str(c.Policy.Name)
		w.Bool(c.Policy.EnforceSLOs)
		w.Int(c.Route)
	case k == recInstall && rec.Install != nil:
		in := rec.Install
		w.Int(in.Shard)
		w.Int(in.JobID)
		w.Int(in.ScaleFactor)
		w.Floats(in.Tput)
		w.Byte(byte(in.Reason))
	case k == recRemove && rec.Remove != nil:
		w.Int(rec.Remove.Shard)
		w.Int(rec.Remove.JobID)
	case k == recDown || k == recDirty || k == recDegrade:
		w.Int(rec.Shard)
	case k == recAlloc && rec.Alloc != nil:
		al := rec.Alloc
		w.Int(al.Shard)
		w.Ints(al.IDs)
		w.Uint(uint64(len(al.Units)))
		for _, u := range al.Units {
			w.Ints(u.Jobs)
			putRows(w, u.Tput)
			w.Str(u.Key)
		}
		putRows(w, al.X)
	case k == recSnapshot && rec.Snapshot != nil:
		sn := rec.Snapshot
		w.Int(sn.Shard)
		w.Uint(uint64(len(sn.Seeds)))
		for _, s := range sn.Seeds {
			w.Str(s.Label)
			wire.PutStrings(w, s.IDs)
			w.Bool(s.Basis != nil)
			if s.Basis != nil {
				s.Basis.WriteWire(w)
			}
		}
		putStatus(w, &sn.Status)
	case k == recRebalance:
	case k == recRound:
		w.Int64(rec.Round)
		w.Bool(rec.Degraded)
	case k == recSubmit && rec.Submit != nil:
		s := rec.Submit
		w.Str(s.Tenant)
		w.Str(s.Key)
		w.Str(s.Name)
		w.Int(s.JobID)
		w.Int(s.ScaleFactor)
		w.Int(s.SLOClass)
		w.Float(s.TotalSteps)
		w.Floats(s.Tput)
		w.Int64(s.Round)
	case (k == recReject || k == recWithdraw || k == recTouch) && rec.Ref != nil:
		ref := rec.Ref
		w.Str(ref.Tenant)
		w.Str(ref.Key)
		w.Byte(byte(ref.Reason))
		w.Int64(ref.Round)
	case k == recMeasure && rec.Measure != nil:
		w.Int(rec.Measure.JobID)
		w.Int(rec.Measure.Type)
		w.Float(rec.Measure.Rate)
	default:
		return fmt.Errorf("rpc: encode journal record: kind %d unknown or without its payload", k)
	}
	return nil
}

func putRows(w *wire.Writer, rows [][]float64) {
	w.Uint(uint64(len(rows)))
	for _, row := range rows {
		w.Floats(row)
	}
}

func putStatus(w *wire.Writer, st *ShardStatus) {
	w.Int(st.Index)
	w.Ints(st.Jobs)
	w.Int(st.Admitted)
	w.Int(st.MigratedIn)
	w.Int(st.MigratedOut)
	w.Int(st.PolicyCalls)
	w.Int64(int64(st.PolicyTime))
	s := &st.Solve
	for _, v := range [...]int{s.Solves, s.WarmAttempts, s.WarmHits, s.RemapAttempts, s.RemapHits,
		s.Iterations, s.Pivots, s.Fallbacks, s.PresolveReductions, s.DualIterations, s.Refactorizations} {
		w.Int(v)
	}
}

// recordReader decodes payloads into records. It keeps its scratch space
// from one record to the next: nothing it returns aliases the scratch or the
// payload.
type recordReader struct {
	ints []int     // units' job lists
	vals []float64 // throughput and X row values
	lens []int     // every count readAlloc met, in order
	keys []byte    // unit keys, end to end
}

// read decodes one payload into rec, overwriting all of it.
func (d *recordReader) read(rec *journalRecord, payload []byte) error {
	r := wire.NewReader(payload)
	*rec = journalRecord{Kind: recordKind(r.Byte())}
	switch rec.Kind {
	case recConfig:
		rec.Config = &journalConfig{Version: r.Int(), NumShards: r.Int(),
			Policy: PolicySpec{Name: r.Str(), EnforceSLOs: r.Bool()}, Route: r.Int()}
	case recInstall:
		rec.Install = &journalInstall{Shard: r.Int(), JobID: r.Int(), ScaleFactor: r.Int(),
			Tput: r.Floats(), Reason: installReason(r.Byte())}
	case recRemove:
		rec.Remove = &journalRemove{Shard: r.Int(), JobID: r.Int()}
	case recDown, recDirty, recDegrade:
		rec.Shard = r.Int()
	case recAlloc:
		rec.Alloc = d.readAlloc(&r)
	case recSnapshot:
		sn := &journalSnapshot{Shard: r.Int()}
		if n := r.Count(); n > 0 {
			sn.Seeds = make([]policy.Seed, n)
			for i := range sn.Seeds {
				s := &sn.Seeds[i]
				s.Label = r.Str()
				s.IDs = wire.Strings[lp.ColumnID](&r)
				if r.Bool() {
					s.Basis = new(lp.Basis)
					s.Basis.ReadWire(&r)
				}
			}
		}
		sn.Status = readStatus(&r)
		rec.Snapshot = sn
	case recRebalance:
	case recRound:
		rec.Round, rec.Degraded = r.Int64(), r.Bool()
	case recSubmit:
		rec.Submit = &journalSubmit{Tenant: r.Str(), Key: r.Str(), Name: r.Str(), JobID: r.Int(),
			ScaleFactor: r.Int(), SLOClass: r.Int(), TotalSteps: r.Float(), Tput: r.Floats(), Round: r.Int64()}
	case recReject, recWithdraw, recTouch:
		rec.Ref = &journalSubmitRef{Tenant: r.Str(), Key: r.Str(), Reason: withdrawReason(r.Byte()), Round: r.Int64()}
	case recMeasure:
		rec.Measure = &journalMeasure{JobID: r.Int(), Type: r.Int(), Rate: r.Float()}
	default:
		r.Fail(fmt.Errorf("unknown kind %d", rec.Kind))
	}
	return r.Finish()
}

func readStatus(r *wire.Reader) ShardStatus {
	st := ShardStatus{Index: r.Int(), Jobs: r.Ints(), Admitted: r.Int(), MigratedIn: r.Int(),
		MigratedOut: r.Int(), PolicyCalls: r.Int(), PolicyTime: time.Duration(r.Int64())}
	s := &st.Solve
	for _, p := range [...]*int{&s.Solves, &s.WarmAttempts, &s.WarmHits, &s.RemapAttempts, &s.RemapHits,
		&s.Iterations, &s.Pivots, &s.Fallbacks, &s.PresolveReductions, &s.DualIterations, &s.Refactorizations} {
		*p = r.Int()
	}
	return st
}

// readAlloc decodes an allocation record into four allocations beyond its
// top-level slices: one slab each for the units' job lists, for their
// throughput rows and the X rows, for those rows' values, and for the unit
// keys. It decodes into the scratch space first, then copies out.
func (d *recordReader) readAlloc(r *wire.Reader) *journalAlloc {
	al := &journalAlloc{Shard: r.Int(), IDs: r.Ints()}
	d.ints, d.vals, d.lens, d.keys = d.ints[:0], d.vals[:0], d.lens[:0], d.keys[:0]
	rows := 0
	readRows := func() {
		k := r.Count()
		d.lens = append(d.lens, k)
		rows += k
		for range k {
			m := r.Count()
			d.lens = append(d.lens, m)
			for range m {
				d.vals = append(d.vals, r.Float())
			}
		}
	}
	n := r.Count()
	for range n {
		k := r.Count()
		d.lens = append(d.lens, k)
		for range k {
			d.ints = append(d.ints, r.Int())
		}
		readRows()
		key := r.Bytes()
		d.lens = append(d.lens, len(key))
		d.keys = append(d.keys, key...)
	}
	readRows()
	if r.Err() != nil {
		return al
	}

	ints, vals, keys := slices.Clone(d.ints), slices.Clone(d.vals), string(d.keys)
	rowSlab, lens := make([][]float64, rows), d.lens
	next := func() int {
		k := lens[0]
		lens = lens[1:]
		return k
	}
	carveRows := func() [][]float64 {
		v := take(&rowSlab, next())
		for i := range v {
			v[i] = take(&vals, next())
		}
		return v
	}
	if n > 0 {
		al.Units = make([]core.Unit, n)
	}
	for i := range al.Units {
		u := &al.Units[i]
		u.Jobs = take(&ints, next())
		u.Tput = carveRows()
		k := next()
		u.Key, keys = keys[:k], keys[k:]
	}
	al.X = carveRows()
	return al
}

// take cuts the next n elements off a slab, capped so that an append to one
// cannot overwrite the next; n == 0 takes nil, as gob decodes an empty slice.
func take[T any](slab *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	v := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return v
}
