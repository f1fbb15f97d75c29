package lp

import (
	"fmt"

	"gavel/internal/wire"
)

// basisWireVersion stamps the serialized form. Decode rejects versions it
// does not understand rather than guessing: a stale basis is worthless (the
// receiver just solves cold), a misdecoded one is wrong. Version 2 replaced
// version 1's gob struct with the package wire encoding.
const basisWireVersion = 2

// WriteWire appends b's wire form: the version, then every field in
// declaration order. A field added to Basis must be added here and in
// ReadWire, and the version bumped, or it silently stops surviving the trip
// between processes (TestBasisWireCarriesEveryField fails first). The
// control plane's snapshot and migration messages and the coordinator's
// journal embed this form as is.
func (b *Basis) WriteWire(w *wire.Writer) {
	w.Int(basisWireVersion)
	w.Int(b.numVars)
	w.Uint(uint64(len(b.ops)))
	for _, op := range b.ops {
		w.Int(int(op))
	}
	w.Ints(b.cols)
	wire.PutStrings(w, b.rowIDs)
	w.Ints(b.atUpper)
	w.Bool(b.polished)
}

// ReadWire decodes what WriteWire wrote into b, leaving any error in r.
func (b *Basis) ReadWire(r *wire.Reader) {
	if v := r.Int(); v != basisWireVersion {
		r.Fail(fmt.Errorf("lp: basis wire version %d, this build speaks %d", v, basisWireVersion))
		return
	}
	b.numVars = r.Int()
	if n := r.Count(); n > 0 {
		b.ops = make([]Op, n)
		for i := range b.ops {
			b.ops[i] = Op(r.Int())
		}
	}
	b.cols = r.Ints()
	b.rowIDs = wire.Strings[string](r)
	b.atUpper = r.Ints()
	b.polished = r.Bool()
	if len(b.cols) != len(b.ops) {
		r.Fail(fmt.Errorf("lp: malformed basis wire: %d basic columns for %d rows", len(b.cols), len(b.ops)))
	}
}

// MarshalBinary implements encoding.BinaryMarshaler with WriteWire's form.
func (b *Basis) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	b.WriteWire(&w)
	return w, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. It accepts exactly
// the bytes MarshalBinary produces and leaves b untouched on error.
func (b *Basis) UnmarshalBinary(data []byte) error {
	var nb Basis
	r := wire.NewReader(data)
	nb.ReadWire(&r)
	if err := r.Finish(); err != nil {
		return err
	}
	*b = nb
	return nil
}
