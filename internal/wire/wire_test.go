package wire

import (
	"math"
	"reflect"
	"testing"
)

// TestRoundTrip reads back what a Writer wrote, value for value.
func TestRoundTrip(t *testing.T) {
	var w Writer
	w.Int(-3)
	w.Int64(math.MinInt64)
	w.Uint(300)
	w.Float(0.5)
	w.Float(math.Inf(-1))
	w.Bool(true)
	w.Byte(7)
	w.Str("ab")
	w.Ints([]int{1, -2})
	w.Floats(nil)
	PutStrings(&w, []string{"x", "", "yz"})
	if n := len(w); n != 1+10+2+3+3+1+1+3+3+1+7 {
		t.Errorf("encoded %d bytes", n)
	}

	r := NewReader(w)
	got := []any{r.Int(), r.Int64(), r.Uint(), r.Float(), r.Float(), r.Bool(), r.Byte(), r.Str(),
		r.Ints(), r.Floats(), Strings[string](&r)}
	want := []any{-3, int64(math.MinInt64), uint64(300), 0.5, math.Inf(-1), true, byte(7), "ab",
		[]int{1, -2}, []float64(nil), []string{"x", "", "yz"}}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("read back %v, want %v", got, want)
	}
}

// TestReaderRefusesWhatNoWriterWrites: every input a Writer cannot have
// produced is an error, and the error sticks.
func TestReaderRefusesWhatNoWriterWrites(t *testing.T) {
	for _, c := range []struct {
		name string
		in   []byte
		read func(r *Reader)
	}{
		{"over-long varint", []byte{0x80, 0x00}, func(r *Reader) { r.Uint() }},
		{"varint past 64 bits", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, func(r *Reader) { r.Uint() }},
		{"truncated varint", []byte{0x80}, func(r *Reader) { r.Uint() }},
		{"empty", nil, func(r *Reader) { r.Byte() }},
		{"bool 2", []byte{2}, func(r *Reader) { r.Bool() }},
		{"count past the end", []byte{3, 1, 2}, func(r *Reader) { r.Ints() }},
		{"count of 3-byte elements past the end", []byte{2, 1, 2, 3, 4, 5}, func(r *Reader) { r.CountOf(3) }},
		{"string past the end", []byte{3, 'a'}, func(r *Reader) { r.Str() }},
		{"strings past the end", []byte{2, 1, 'a', 4}, func(r *Reader) { Strings[string](r) }},
		{"trailing byte", []byte{1, 0}, func(r *Reader) { r.Uint() }},
	} {
		r := NewReader(c.in)
		c.read(&r)
		if err := r.Finish(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		if r.Uint() != 0 || r.Count() != 0 || r.Err() == nil {
			t.Errorf("%s: the error did not stick", c.name)
		}
	}
}
