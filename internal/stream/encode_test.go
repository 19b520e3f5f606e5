package stream

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// The bit-stack encoders Compress used before the encode kernels: last-n
// runs forward pushing FR entries, then walks back popping them, pushing
// their BL references and capturing checkpoints; packed pushes each value.
// They are the reference encodeLastN and newPacked are compared against.

func newLastNEnc(vals []uint32, n int, stride bool) *lastNEnc {
	if n < 2 || n&(n-1) != 0 {
		panic("stream: last-n table size must be a power of two >= 2")
	}
	e := &lastNEnc{
		m:       len(vals),
		n:       n,
		idxBits: uint(bits.TrailingZeros(uint(n))),
		stride:  stride,
		tb:      make([]uint32, n),
	}
	for _, v := range vals {
		x := v
		if stride {
			x = v - e.lastVal
			e.lastVal = v
		}
		e.encode(x)
		e.pos++
	}
	return e
}

// encode move-to-fronts x into the table and pushes the FR entry.
func (e *lastNEnc) encode(x uint32) {
	for i, v := range e.tb {
		if v == x {
			// Hit: move to front; entry records the index for the undo.
			copy(e.tb[1:i+1], e.tb[:i])
			e.tb[0] = x
			e.fr.pushBits(uint32(i), e.idxBits)
			e.fr.pushBit(true)
			return
		}
	}
	evicted := e.tb[e.n-1]
	copy(e.tb[1:], e.tb[:e.n-1])
	e.tb[0] = x
	e.fr.pushBits(evicted, 32)
	e.fr.pushBit(false)
}

// finish freezes the encoder (at position m, BL empty) into an immutable
// stream, rebuilding BL backward while capturing checkpoints (see
// fcmEnc.finish).
func (e *lastNEnc) finish() *lastNStream {
	s := &lastNStream{m: e.m, n: e.n, idxBits: e.idxBits, stride: e.stride}
	fr := e.fr.freeze()
	sp := ckSpacing(e.m, s.stateBits())
	var cks []lastNCk // built in strictly descending pos, reversed below
	if e.m > 0 {
		cks = append(cks, e.snapshot())
	}
	for e.pos > 0 {
		e.prev()
		if sp > 0 && e.pos > 0 && e.pos%sp == 0 {
			cks = append(cks, e.snapshot())
		}
	}
	s.bl = e.bl.freeze()
	cks = append(cks, lastNCk{pos: 0, frLen: 0, blLen: s.bl.n}) // all-zero start
	slices.Reverse(cks)
	s.seal(fr, cks)
	return s
}

func (e *lastNEnc) snapshot() lastNCk {
	return lastNCk{
		pos: e.pos, frLen: e.fr.bits(), blLen: e.bl.bits(),
		tb: snapTable(e.tb), lastVal: e.lastVal,
	}
}

func refPacked(vals []uint32) *packed {
	var hi uint32
	for _, v := range vals {
		hi = max(hi, v)
	}
	width := uint(bits.Len32(hi))
	var bs bitstack
	for _, v := range vals {
		bs.pushBits(v, width)
	}
	return &packed{width: width, m: len(vals), data: wordBytes(bs.freeze().words)}
}

// wordBytes is words as little-endian bytes (nil for none).
func wordBytes(words []uint64) []byte {
	var b []byte
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// refEncode is Compress through the reference encoders.
func refEncode(vals []uint32, spec Spec) Stream {
	switch spec.Kind {
	case KindLastN, KindLastNStride:
		return newLastNEnc(vals, spec.Order, spec.Kind == KindLastNStride).finish()
	case KindPacked:
		return refPacked(vals)
	}
	panic(fmt.Sprintf("stream: no reference encoder for %s", spec))
}

// encodeSpecs is every spec an encode kernel builds: the six last-n
// candidates and packed.
func encodeSpecs() []Spec {
	var out []Spec
	for _, sp := range Candidates {
		if sp.Kind == KindLastN || sp.Kind == KindLastNStride || sp.Kind == KindPacked {
			out = append(out, sp)
		}
	}
	return out
}

// checkEncode requires the kernel's stream for vals to equal the
// reference's field by field.
func checkEncode(t *testing.T, what string, vals []uint32, spec Spec) {
	t.Helper()
	if err := diffStreams(Compress(vals, spec), refEncode(vals, spec)); err != nil {
		t.Fatalf("%s: kernel differs from the reference encoder: %v", what, err)
	}
}

// packedVals returns m values of exactly width bits (the maximum has its top
// bit set), so the stream is packed at that width.
func packedVals(rng *rand.Rand, m int, width uint) []uint32 {
	vals := make([]uint32, m)
	if width == 0 {
		return vals
	}
	for i := range vals {
		vals[i] = uint32(rng.Uint64() & (1<<width - 1))
	}
	if m > 0 {
		vals[rng.Intn(m)] |= 1 << (width - 1)
	}
	return vals
}

// TestEncodeMatchesReference is the differential test of the encode
// kernels: at lengths around a 64-bit word and a long stream, for every
// last-n spec (the longer lengths with interior checkpoints) and for every
// packed width, the kernel builds the stream the bit-stack reference builds,
// field by field.
func TestEncodeMatchesReference(t *testing.T) {
	lengths := []int{0, 1, 63, 64, 65, 5000}
	if !testing.Short() {
		lengths = append(lengths, 200_000)
	}
	rng := rand.New(rand.NewSource(26))
	for _, m := range lengths {
		vals := loadTestVals(rng, m)
		for _, spec := range encodeSpecs() {
			if spec.Kind == KindPacked {
				continue
			}
			checkEncode(t, fmt.Sprintf("%s/%d", spec, m), vals, spec)
		}
		for width := uint(0); width <= 32; width++ {
			checkEncode(t, fmt.Sprintf("packed%d/%d", width, m), packedVals(rng, m, width), Spec{KindPacked, 0})
		}
	}
}

// FuzzEncode: for any values and spec the kernel builds the reference's
// stream, and Load(Save(·)) of the kernel's stream is that same stream.
func FuzzEncode(f *testing.F) {
	for _, vals := range selectionSeeds() {
		for i := range encodeSpecs() {
			seed := []byte{0}
			for _, v := range vals {
				seed = append(seed, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
			}
			f.Add(seed, uint8(i))
		}
	}
	f.Add([]byte{1, 0, 0, 7, 0, 7, 7, 0}, uint8(0))
	f.Add([]byte{2, 1, 1, 1, 200, 1, 1, 1}, uint8(3))
	specs := encodeSpecs()
	f.Fuzz(func(t *testing.T, data []byte, which uint8) {
		vals := fuzzVals(data)
		spec := specs[int(which)%len(specs)]
		checkEncode(t, spec.String(), vals, spec)
		s := Compress(vals, spec)
		var buf bytes.Buffer
		if err := saveTo(&buf, s); err != nil {
			t.Fatalf("%s: Save: %v", spec, err)
		}
		got, _, err := Load(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: Load of a saved stream: %v", spec, err)
		}
		if err := diffStreams(got, s); err != nil {
			t.Fatalf("%s: Load(Save(s)) differs from s: %v", spec, err)
		}
	})
}
