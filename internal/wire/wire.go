// Package wire is the bounded binary encoding behind the control plane's
// messages, the coordinator's journal records and lp.Basis's wire form. A
// message is its fields in a fixed order, with no tags and no type
// descriptors:
//
//   - ints are zigzag varints;
//   - counts and lengths are uvarints;
//   - floats are written the way encoding/gob writes them, the IEEE bits
//     byte-reversed as a uvarint, so 0 and short fractions such as 0.5 take
//     one to three bytes;
//   - strings are a length followed by the bytes;
//   - bools are one byte, 0 or 1.
//
// A Reader accepts exactly the bytes a Writer produces: an over-long varint,
// a bool other than 0 or 1, or bytes left over are errors, so whatever it
// accepts re-encodes to the same bytes. It checks every count against the
// bytes left before allocating for it (every element takes at least one
// byte), so a corrupt count costs no more memory than the input holds. A
// zero count decodes to a nil slice, as gob decodes one.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Writer appends encoded values to its bytes; w = w[:0] reuses the buffer.
type Writer []byte

func (w *Writer) Uint(v uint64)   { *w = binary.AppendUvarint(*w, v) }
func (w *Writer) Int64(v int64)   { *w = binary.AppendVarint(*w, v) }
func (w *Writer) Int(v int)       { w.Int64(int64(v)) }
func (w *Writer) Byte(v byte)     { *w = append(*w, v) }
func (w *Writer) Float(v float64) { w.Uint(bits.ReverseBytes64(math.Float64bits(v))) }

func (w *Writer) Bool(v bool) {
	if v {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

func (w *Writer) Str(s string) {
	w.Uint(uint64(len(s)))
	*w = append(*w, s...)
}

func (w *Writer) Ints(v []int) {
	w.Uint(uint64(len(v)))
	for _, x := range v {
		w.Int(x)
	}
}

func (w *Writer) Floats(v []float64) {
	w.Uint(uint64(len(v)))
	for _, x := range v {
		w.Float(x)
	}
}

// PutStrings writes a count and that many strings.
func PutStrings[S ~string](w *Writer, v []S) {
	w.Uint(uint64(len(v)))
	for _, s := range v {
		w.Str(string(s))
	}
}

// Reader decodes values from a byte slice. The first error sticks and drops
// the unread bytes: later reads return zero values and counts of 0, so a
// caller decodes a whole message and checks Err or Finish once at the end.
type Reader struct {
	buf []byte
	err error
}

// NewReader returns a Reader over b. Only Bytes aliases b; every other read
// copies out of it.
func NewReader(b []byte) Reader { return Reader{buf: b} }

var errTruncated = errors.New("wire: truncated")

// Err returns the first error the Reader met.
func (r *Reader) Err() error { return r.err }

// Fail records err, unless an earlier error is already recorded.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err, r.buf = err, nil
	}
}

// Finish returns the first error, or an error if bytes are left unread.
func (r *Reader) Finish() error {
	if r.err == nil && len(r.buf) > 0 {
		r.err = fmt.Errorf("wire: %d trailing bytes", len(r.buf))
	}
	return r.err
}

func (r *Reader) Uint() uint64 {
	if b := r.buf; len(b) > 0 && b[0] < 0x80 { // one byte: most counts and ints
		r.buf = b[1:]
		return uint64(b[0])
	}
	return r.uvarint()
}

func (r *Reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.buf)
	switch {
	case n <= 0:
		r.Fail(errTruncated) // or a value past 64 bits
		return 0
	case n > 1 && r.buf[n-1] == 0:
		r.Fail(errors.New("wire: over-long varint"))
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *Reader) Int64() int64 {
	u := r.Uint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *Reader) Int() int {
	v := r.Int64()
	if int64(int(v)) != v {
		r.Fail(fmt.Errorf("wire: %d overflows int", v))
		return 0
	}
	return int(v)
}

func (r *Reader) Byte() byte {
	if len(r.buf) == 0 {
		r.Fail(errTruncated)
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

func (r *Reader) Bool() bool {
	b := r.Byte()
	if b > 1 {
		r.Fail(fmt.Errorf("wire: bool byte %d", b))
	}
	return b == 1
}

func (r *Reader) Float() float64 {
	return math.Float64frombits(bits.ReverseBytes64(r.Uint()))
}

// Count reads a count or length, refusing one larger than the bytes left.
func (r *Reader) Count() int { return r.CountOf(1) }

// CountOf reads a count of elements that each take at least size bytes
// encoded, refusing one whose elements could not fit in the bytes left.
func (r *Reader) CountOf(size int) int {
	n := r.Uint()
	if n > uint64(len(r.buf)/size) {
		r.Fail(fmt.Errorf("wire: count %d of %d-byte elements with %d bytes left", n, size, len(r.buf)))
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte string, aliasing the input.
func (r *Reader) Bytes() []byte {
	n := r.Count()
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

func (r *Reader) Str() string { return string(r.Bytes()) }

func (r *Reader) Ints() []int {
	n := r.Count()
	if n == 0 {
		return nil
	}
	v := make([]int, n)
	for i := range v {
		v[i] = r.Int()
	}
	return v
}

func (r *Reader) Floats() []float64 {
	n := r.Count()
	if n == 0 {
		return nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = r.Float()
	}
	return v
}

// Strings reads what PutStrings wrote. The strings share one allocation: a
// copy of their encoded run, length prefixes included.
func Strings[S ~string](r *Reader) []S {
	n := r.Count()
	if n == 0 {
		return nil
	}
	scan := *r
	for range n {
		scan.Bytes()
	}
	if scan.err != nil {
		r.Fail(scan.err)
		return nil
	}
	run := string(r.buf[:len(r.buf)-len(scan.buf)])
	v := make([]S, n)
	for i := range v {
		b := r.Bytes()
		end := len(run) - (len(r.buf) - len(scan.buf))
		v[i] = S(run[end-len(b) : end])
	}
	return v
}
