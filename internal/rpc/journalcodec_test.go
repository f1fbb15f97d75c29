package rpc

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"gavel/internal/wire"
)

// recordFields names the journalRecord fields each kind carries.
var recordFields = map[recordKind][]string{
	recConfig:    {"Config"},
	recInstall:   {"Install"},
	recRemove:    {"Remove"},
	recDown:      {"Shard"},
	recDirty:     {"Shard"},
	recAlloc:     {"Alloc"},
	recSnapshot:  {"Snapshot"},
	recRebalance: nil,
	recDegrade:   {"Shard"},
	recRound:     {"Round", "Degraded"},
	recSubmit:    {"Submit"},
	recReject:    {"Ref"},
	recWithdraw:  {"Ref"},
	recTouch:     {"Ref"},
	recMeasure:   {"Measure"},
}

// fillAll sets everything v reaches to non-zero values: numbers from a
// counter, strings from it, two elements per slice, a fresh value behind
// every pointer. Unexported fields are set too (lp.Basis keeps its state in
// them), so a field the codec forgets cannot hide behind a zero.
func fillAll(t testing.TB, v reflect.Value, n *int) {
	if !v.CanSet() {
		v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
	}
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n) * 37)
	case reflect.Uint8:
		v.SetUint(uint64(*n % 251))
	case reflect.Float64:
		v.SetFloat(float64(*n) / 3)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < 2; i++ {
			fillAll(t, s.Index(i), n)
		}
		v.Set(s)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		fillAll(t, p.Elem(), n)
		v.Set(p)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillAll(t, v.Field(i), n)
		}
	default:
		t.Fatalf("fillAll: no case for %s", v.Type())
	}
}

// TestRecordCodecCarriesEveryField fills every field of every record kind
// with non-zero values and requires encode → decode to give the record back
// deeply equal: a field added to a record without codec support fails here.
// Every journalRecord field must belong to some kind, and a kind the table
// does not know must not encode.
func TestRecordCodecCarriesEveryField(t *testing.T) {
	covered := map[string]bool{"Kind": true}
	for k := 0; k < 256; k++ {
		fields, known := recordFields[recordKind(k)]
		rec := journalRecord{Kind: recordKind(k)}
		n := 0
		for _, name := range fields {
			fillAll(t, reflect.ValueOf(&rec).Elem().FieldByName(name), &n)
			covered[name] = true
		}
		var w wire.Writer
		err := putRecord(&w, &rec)
		if !known {
			if err == nil {
				t.Fatalf("kind %d encodes but recordFields does not list it", k)
			}
			continue
		}
		if err != nil {
			t.Fatalf("kind %d: %v", k, err)
		}
		var got journalRecord
		if err := readRecord(&got, w); err != nil {
			t.Fatalf("kind %d: decode: %v", k, err)
		}
		// Nothing decoded may alias the payload, and slab-backed slices are
		// capped: growing one leaves its neighbours alone.
		for i := range w {
			w[i] = 0xee
		}
		if al := got.Alloc; al != nil {
			_ = append(al.Units[0].Jobs, -1)
			_ = append(al.Units[0].Tput, nil)
			_ = append(al.Units[1].Tput[0], -1)
			_ = append(al.X[0], -1)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("kind %d did not survive the codec:\n got %+v\nwant %+v", k, got, rec)
		}
	}
	for i := 0; i < reflect.TypeOf(journalRecord{}).NumField(); i++ {
		if name := reflect.TypeOf(journalRecord{}).Field(i).Name; !covered[name] {
			t.Errorf("journalRecord.%s belongs to no kind in recordFields", name)
		}
	}
}
