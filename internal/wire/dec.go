// Package wire is the one decoder and the one encoder of the little-endian
// container bytes: the stream deserializer and the .wet section parsers both
// walk a byte slice they already hold through a Dec, and the stream and
// section writers both append to one through an Enc.
package wire

import (
	"encoding/binary"
	"io"
)

// Dec walks a byte slice front to back. Every getter makes one bounds check
// against the bytes that are left; the first one that falls short records
// io.ErrUnexpectedEOF and leaves nothing to read, so every later getter
// returns zero too and a run of reads needs one Err check at its end — before
// the values are trusted, and in every loop an untrusted count drives. Arrays are
// decoded into one exactly-sized slice only after the bytes for them are
// known to be there: an allocation is bounded by the input, whatever a count
// field claims.
type Dec struct {
	b   []byte
	off int
	err error

	// Skim makes the array getters check and step over their bytes without
	// decoding them: the caller wants the structure validated and the
	// length consumed, not the contents.
	Skim bool
}

// NewDec returns a decoder positioned at the start of b.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Reset makes d a fresh decoder over b (no error, Skim off), so one Dec can
// walk buffer after buffer without an allocation each.
func (d *Dec) Reset(b []byte) { *d = Dec{b: b} }

// Err is the first short read, or nil.
func (d *Dec) Err() error { return d.err }

// Offset is the number of bytes consumed.
func (d *Dec) Offset() int { return d.off }

// Remaining is the number of bytes left.
func (d *Dec) Remaining() int { return len(d.b) - d.off }

// Rest returns the unread bytes without consuming them.
func (d *Dec) Rest() []byte { return d.b[d.off:] }

func (d *Dec) short() uint64 {
	d.off = len(d.b)
	d.err = io.ErrUnexpectedEOF
	return 0
}

func (d *Dec) U8() uint8 {
	if len(d.b)-d.off < 1 {
		return uint8(d.short())
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *Dec) U32() uint32 {
	if len(d.b)-d.off < 4 {
		return uint32(d.short())
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *Dec) U64() uint64 {
	if len(d.b)-d.off < 8 {
		return d.short()
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *Dec) I32() int32 { return int32(d.U32()) }
func (d *Dec) I64() int64 { return int64(d.U64()) }

// Bytes consumes n bytes and returns them as a view of the input, or nil
// when fewer are left (or n is negative).
func (d *Dec) Bytes(n int) []byte {
	if n < 0 || len(d.b)-d.off < n {
		d.short()
		return nil
	}
	p := d.b[d.off : d.off+n : d.off+n]
	d.off += n
	return p
}

// Count reads a u32 element count and refuses one the remaining bytes cannot
// hold at elemMin bytes per element.
func (d *Dec) Count(elemMin int) int {
	n := d.U32()
	if int64(n)*int64(elemMin) > int64(d.Remaining()) {
		d.short()
		return 0
	}
	return int(n)
}

// U32s decodes n values; nil when n is 0, the input is short, or Skim is set.
func (d *Dec) U32s(n int) []uint32 {
	p := d.Bytes(4 * n)
	if len(p) == 0 || d.Skim {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(p[4*i:])
	}
	return out
}

// U64s is U32s for 64-bit words.
func (d *Dec) U64s(n int) []uint64 {
	p := d.Bytes(8 * n)
	if len(p) == 0 || d.Skim {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(p[8*i:])
	}
	return out
}
