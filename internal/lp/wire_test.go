package lp

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"unsafe"
)

// filledBasis returns a Basis whose every field is non-zero, set by
// reflection so that a field added to Basis is filled too.
func filledBasis(t testing.TB) *Basis {
	b := new(Basis)
	v := reflect.ValueOf(b).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(int64(7 + i))
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Slice:
			s := reflect.MakeSlice(f.Type(), 3, 3)
			for k := 0; k < 3; k++ {
				switch e := s.Index(k); e.Kind() {
				case reflect.Int:
					e.SetInt(int64(k + i))
				case reflect.String:
					e.SetString(fmt.Sprintf("r%d", k))
				default:
					t.Fatalf("Basis.%s: no case for %s", v.Type().Field(i).Name, e.Type())
				}
			}
			f.Set(s)
		default:
			t.Fatalf("Basis.%s: no case for %s", v.Type().Field(i).Name, f.Type())
		}
	}
	return b
}

// TestBasisWireCarriesEveryField: a Basis with every field set survives
// MarshalBinary → UnmarshalBinary deeply equal, so a field added to Basis
// without wire support fails here.
func TestBasisWireCarriesEveryField(t *testing.T) {
	want := filledBasis(t)
	data, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Basis
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("basis did not survive the wire:\n got %+v\nwant %+v", &got, want)
	}
	// Every shorter prefix, and any byte past the end, is refused and
	// leaves the receiver as it was.
	cuts := [][]byte{append(data[:len(data):len(data)], 0)}
	for n := 0; n < len(data); n++ {
		cuts = append(cuts, data[:n])
	}
	for _, in := range cuts {
		before := got
		if err := got.UnmarshalBinary(in); err == nil {
			t.Fatalf("a %d-byte cut of a %d-byte basis decoded", len(in), len(data))
		}
		if !reflect.DeepEqual(got, before) {
			t.Fatalf("a refused decode changed the receiver")
		}
	}
}

// FuzzBasisWire: UnmarshalBinary is total over arbitrary bytes — it never
// panics, allocates no more than a small multiple of its input, and every
// input it accepts re-marshals to the same bytes.
func FuzzBasisWire(f *testing.F) {
	seed, err := filledBasis(f).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	empty, _ := (&Basis{}).MarshalBinary()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(empty)
	f.Add([]byte{4, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The least of three decodes: the fuzzing engine allocates on its own
		// goroutines now and then.
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			new(Basis).UnmarshalBinary(data)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if limit := uint64(32*len(data) + 1024); least > limit {
			t.Fatalf("decoding %d bytes allocated %d", len(data), least)
		}
		var b Basis
		if err := b.UnmarshalBinary(data); err != nil {
			return
		}
		again, err := b.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted %x re-marshals to %x", data, again)
		}
	})
}
