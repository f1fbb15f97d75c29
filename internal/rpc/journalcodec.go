package rpc

// The journal's record codec. A frame's payload is the record's kind byte
// followed by that kind's fields in declaration order, in package wire's
// encoding (zigzag varints, gob-style floats, length-prefixed strings and
// slices), so every frame decodes on its own. An allocation or snapshot
// record is its shard followed by the control-plane reply it embeds, in that
// reply's own wire form (codec.go). A field added to a record struct must be
// added to both putRecord and readRecord: TestRecordCodecCarriesEveryField
// fills every field and fails otherwise.

import (
	"fmt"

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
		w.Int(rec.Alloc.Shard)
		rec.Alloc.putWire(w)
	case k == recSnapshot && rec.Snapshot != nil:
		w.Int(rec.Snapshot.Shard)
		rec.Snapshot.putWire(w)
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

// readRecord decodes one payload into rec, overwriting all of it. Nothing it
// decodes aliases the payload.
func readRecord(rec *journalRecord, payload []byte) error {
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
		rec.Alloc = &journalAlloc{Shard: r.Int()}
		rec.Alloc.readWire(&r)
	case recSnapshot:
		rec.Snapshot = &journalSnapshot{Shard: r.Int()}
		rec.Snapshot.readWire(&r)
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
