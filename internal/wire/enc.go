package wire

import (
	"encoding/binary"
	"slices"
)

// Enc is the writing half of Dec: it appends little-endian fixed-width
// values to B. Appending cannot fail and reflects on nothing, so a run of
// puts needs no error check; whoever owns B decides when its bytes go out.
type Enc struct{ B []byte }

func (e *Enc) U8(v uint8)   { e.B = append(e.B, v) }
func (e *Enc) U32(v uint32) { e.B = binary.LittleEndian.AppendUint32(e.B, v) }
func (e *Enc) U64(v uint64) { e.B = binary.LittleEndian.AppendUint64(e.B, v) }
func (e *Enc) I32(v int32)  { e.U32(uint32(v)) }
func (e *Enc) I64(v int64)  { e.U64(uint64(v)) }

// Bool puts b as one byte, 1 or 0.
func (e *Enc) Bool(b bool) {
	var v uint8
	if b {
		v = 1
	}
	e.U8(v)
}

// Raw appends p as it is.
func (e *Enc) Raw(p []byte) { e.B = append(e.B, p...) }

// Zeros appends n zero bytes.
func (e *Enc) Zeros(n int) {
	e.B = slices.Grow(e.B, n)
	e.B = e.B[:len(e.B)+n]
	clear(e.B[len(e.B)-n:])
}

// U32s puts every value of vs, growing B once.
func (e *Enc) U32s(vs []uint32) {
	e.B = slices.Grow(e.B, 4*len(vs))
	for _, v := range vs {
		e.B = binary.LittleEndian.AppendUint32(e.B, v)
	}
}

// U64s is U32s for 64-bit words.
func (e *Enc) U64s(vs []uint64) {
	e.B = slices.Grow(e.B, 8*len(vs))
	for _, v := range vs {
		e.B = binary.LittleEndian.AppendUint64(e.B, v)
	}
}
