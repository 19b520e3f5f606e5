package stream

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"wet/internal/wire"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]uint32, 1000)
	for i := range vals {
		vals[i] = uint32(rng.Intn(64)) * 3
	}
	for _, spec := range Candidates {
		s := Compress(vals, spec)
		var buf bytes.Buffer
		if err := saveTo(&buf, s); err != nil {
			t.Fatalf("%s: Save: %v", spec, err)
		}
		saved := append([]byte(nil), buf.Bytes()...)
		// Load reports exactly the bytes Save wrote, whatever follows them.
		s2, n, err := Load(append(buf.Bytes(), 0xEE, 0xEE))
		if err != nil {
			t.Fatalf("%s: Load: %v", spec, err)
		}
		if n != len(saved) {
			t.Fatalf("%s: Load consumed %d bytes of the %d Save wrote", spec, n, len(saved))
		}
		if s2.Len() != len(vals) {
			t.Fatalf("%s: len = %d", spec, s2.Len())
		}
		if s2.Name() != s.Name() {
			t.Fatalf("%s: name %s != %s", spec, s2.Name(), s.Name())
		}
		if s2.SizeBits() != s.SizeBits() {
			t.Fatalf("%s: size %d != %d", spec, s2.SizeBits(), s.SizeBits())
		}
		// Full traversal in both directions through a cursor, plus a
		// checkpointed seek into the middle.
		c := s2.NewCursor()
		for i := 0; i < len(vals); i++ {
			if got := c.Next(); got != vals[i] {
				t.Fatalf("%s: fwd val %d = %d, want %d", spec, i, got, vals[i])
			}
		}
		for i := len(vals) - 1; i >= 0; i-- {
			if got := c.Prev(); got != vals[i] {
				t.Fatalf("%s: bwd val %d = %d, want %d", spec, i, got, vals[i])
			}
		}
		c.Seek(400)
		if got := c.Next(); got != vals[400] {
			t.Fatalf("%s: Seek(400)+Next = %d, want %d", spec, got, vals[400])
		}
		// Save is canonical: re-saving the loaded stream must reproduce the
		// bytes exactly (the fixed point the container format relies on).
		var buf2 bytes.Buffer
		if err := saveTo(&buf2, s2); err != nil {
			t.Fatalf("%s: re-Save: %v", spec, err)
		}
		if !bytes.Equal(saved, buf2.Bytes()) {
			t.Fatalf("%s: Save→Load→Save not a byte fixed point (%d vs %d bytes)", spec, len(saved), buf2.Len())
		}
	}
}

func TestSaveLoadConcatenated(t *testing.T) {
	var buf bytes.Buffer
	a := Compress([]uint32{1, 2, 3}, Spec{KindFCM, 1})
	b := Compress([]uint32{9, 9, 9, 9}, Spec{KindLastN, 2})
	c := Compress([]uint32{7}, Spec{KindVerbatim, 0})
	for _, s := range []Stream{a, b, c} {
		if err := saveTo(&buf, s); err != nil {
			t.Fatal(err)
		}
	}
	rest := buf.Bytes()
	for _, want := range [][]uint32{{1, 2, 3}, {9, 9, 9, 9}, {7}} {
		s, n, err := Load(rest)
		if err != nil {
			t.Fatal(err)
		}
		rest = rest[n:]
		got := drain(s)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("concatenated load: got %v want %v", got, want)
			}
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
}

func TestLoadBadTag(t *testing.T) {
	if _, _, err := Load([]byte{0xFF}); err == nil {
		t.Fatal("Load accepted bad tag")
	}
}

// FuzzLoad ensures arbitrary bytes never panic the stream deserializer, and
// that Load's normalization is sound: a stream it accepts traverses its
// whole length in both directions without panicking, and is the stream the
// two-pass reference builds — Load may refuse what the reference accepts
// (the forged non-canonical seeds), never build something else.
func FuzzLoad(f *testing.F) {
	vals := []uint32{1, 5, 5, 9, 1, 5}
	for _, spec := range Candidates {
		var buf bytes.Buffer
		if err := saveTo(&buf, Compress(vals, spec)); err == nil {
			f.Add(buf.Bytes())
		}
	}
	for _, data := range forgedSeeds() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, _, err := Load(data)
		if err != nil {
			return
		}
		checkLoadAgainstReference(t, data, s)
		if err := WalkCheck(s); err != nil {
			t.Fatalf("Load accepted a stream WalkCheck rejects: %v", err)
		}
		// Accepted: traversal must now be panic-free over the full length.
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("traversal of loaded stream panicked: %v", r)
			}
		}()
		c := s.NewCursor()
		for c.Pos() < c.Len() {
			c.Next()
		}
		for c.Pos() > 0 {
			c.Prev()
		}
	})
}

// mutate returns a copy of b with the uint32 at off overwritten.
func mutate(b []byte, off int, v uint32) []byte {
	out := append([]byte(nil), b...)
	out[off] = byte(v)
	out[off+1] = byte(v >> 8)
	out[off+2] = byte(v >> 16)
	out[off+3] = byte(v >> 24)
	return out
}

func saveBytes(t *testing.T, vals []uint32, spec Spec) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := saveTo(&buf, Compress(vals, spec)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func wantLoadErr(t *testing.T, data []byte, what string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: Load panicked instead of erroring: %v", what, r)
		}
	}()
	if _, _, err := Load(data); err == nil {
		t.Fatalf("%s: Load accepted malformed input", what)
	}
}

// TestLoadErrVerbatim covers the converted verbatim paths: cursor out of
// range and truncated payload. Layout: tag(1) n(4) vals(4n) pos(4).
func TestLoadErrVerbatim(t *testing.T) {
	b := saveBytes(t, []uint32{7, 8, 9}, Spec{KindVerbatim, 0})
	wantLoadErr(t, mutate(b, len(b)-4, 99), "cursor past end")
	wantLoadErr(t, b[:len(b)-2], "truncated cursor")
	wantLoadErr(t, mutate(b, 1, 1<<29), "implausible length")
}

// TestLoadErrPacked covers the converted packed paths. Layout: tag(1)
// width(4) m(4) pos(4) nw(4) words(8nw).
func TestLoadErrPacked(t *testing.T) {
	b := saveBytes(t, []uint32{1, 2, 3, 1, 2, 3}, Spec{KindPacked, 0})
	wantLoadErr(t, mutate(b, 1, 40), "width over 32")
	wantLoadErr(t, mutate(b, 9, 1000), "cursor past end")
	wantLoadErr(t, mutate(b, 13, 0), "word count below need")
	wantLoadErr(t, mutate(b, 5, 1<<27), "value count without payload")
	wantLoadErr(t, b[:len(b)-3], "truncated words")
}

// TestLoadErrFCM covers the converted FCM/dFCM paths. Layout: tag(1) m(4)
// order(4) tbBits(4) pos(4) size(8) frtb bltb win frbits blbits.
func TestLoadErrFCM(t *testing.T) {
	vals := []uint32{1, 5, 5, 9, 1, 5, 2, 2}
	for _, spec := range []Spec{{KindFCM, 2}, {KindDFCM, 2}} {
		b := saveBytes(t, vals, spec)
		wantLoadErr(t, mutate(b, 5, 0), "order zero")
		wantLoadErr(t, mutate(b, 5, 100), "order over 64")
		wantLoadErr(t, mutate(b, 9, 27), "table bits over 26")
		wantLoadErr(t, mutate(b, 13, 1000), "cursor past end")
		// Shrinking the forward table's length prefix desynchronizes or
		// fails the table-size cross-check; either way it must error.
		wantLoadErr(t, mutate(b, 25, 1), "table shorter than 1<<tbBits")
		wantLoadErr(t, b[:len(b)/2], "truncated mid-state")
	}
}

// TestLoadErrLastN covers the converted last-n paths. Layout: tag(1)
// stride(1) m(4) n(4) idxBits(4) pos(4) lastVal(4) size(8) tb frbits blbits.
func TestLoadErrLastN(t *testing.T) {
	vals := []uint32{3, 3, 6, 3, 6, 6, 9, 3}
	for _, spec := range []Spec{{KindLastN, 4}, {KindLastNStride, 4}} {
		b := saveBytes(t, vals, spec)
		wantLoadErr(t, mutate(b, 6, 3), "table size not a power of two")
		wantLoadErr(t, mutate(b, 6, 1<<21), "table size over 2^20")
		wantLoadErr(t, mutate(b, 10, 7), "index width inconsistent")
		wantLoadErr(t, mutate(b, 14, 1000), "cursor past end")
		wantLoadErr(t, b[:len(b)-1], "truncated bit store")
		// Stride flag contradicting the kind tag.
		flip := append([]byte(nil), b...)
		flip[1] ^= 1
		wantLoadErr(t, flip, "stride flag contradicts tag")
	}
}

// TestLoadRejectsForgedEntries hand-crafts an FCM state that passes every
// structural check but whose entry stores are empty: Load's normalizing
// traversal must reject it outright (it used to be accepted, relying on a
// separate WalkCheck pass to catch the forgery before a query panicked).
func TestLoadRejectsForgedEntries(t *testing.T) {
	var buf bytes.Buffer
	writeAll(&buf, uint8(KindFCM),
		uint32(2), // m: claims two values
		uint32(1), // order
		uint32(1), // tbBits
		uint32(0), // pos
		uint64(0)) // size
	writeU32s(&buf, []uint32{0, 0})      // frtb (1<<tbBits)
	writeU32s(&buf, []uint32{0, 0})      // bltb
	writeU32s(&buf, []uint32{0})         // win (order entries)
	writeAll(&buf, uint64(0), uint32(0)) // fr bitstack: 0 bits, 0 words
	writeAll(&buf, uint64(0), uint32(0)) // bl bitstack: empty too
	if _, _, err := Load(buf.Bytes()); err == nil {
		t.Fatal("Load accepted a stream with empty entry stores")
	}
}

// TestLoadNormalizesMidStreamCursor feeds Load a state saved at an interior
// position (as older writers could produce) and checks it is accepted and
// reads back the full sequence. The state is produced by running the
// encoder forward only part way.
func TestLoadNormalizesMidStreamCursor(t *testing.T) {
	vals := []uint32{4, 8, 15, 16, 23, 42, 4, 8}
	for _, spec := range []Spec{{KindFCM, 1}, {KindDFCM, 1}, {KindLastN, 2}, {KindLastNStride, 2}} {
		// Build an encoder, walk it to an interior position, and serialize
		// that state by hand in the wire layout.
		var buf bytes.Buffer
		switch spec.Kind {
		case KindFCM, KindDFCM:
			enc := newFCMEnc(vals, spec.Order, spec.Kind == KindDFCM)
			for enc.pos > 3 {
				enc.prev()
			}
			kind := KindFCM
			if enc.stride {
				kind = KindDFCM
			}
			writeAll(&buf, uint8(kind), uint32(enc.m), uint32(enc.order),
				uint32(enc.tbBits), uint32(enc.pos), uint64(0))
			writeU32s(&buf, enc.frtb)
			writeU32s(&buf, enc.bltb)
			writeU32s(&buf, enc.win)
			writeBits(&buf, &enc.fr)
			writeBits(&buf, &enc.bl)
		default:
			enc := newLastNEnc(vals, spec.Order, spec.Kind == KindLastNStride)
			for enc.pos > 3 {
				enc.prev()
			}
			kind := KindLastN
			if enc.stride {
				kind = KindLastNStride
			}
			writeAll(&buf, uint8(kind), uint8(b2u8(enc.stride)), uint32(enc.m),
				uint32(enc.n), uint32(enc.idxBits), uint32(enc.pos), enc.lastVal, uint64(0))
			writeU32s(&buf, enc.tb)
			writeBits(&buf, &enc.fr)
			writeBits(&buf, &enc.bl)
		}
		s, _, err := Load(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: Load of mid-stream state: %v", spec, err)
		}
		got := drain(s)
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("%s: normalized stream value %d = %d, want %d", spec, i, got[i], vals[i])
			}
		}
	}
}

// TestWalkCheckPassesValid certifies every candidate encoding of a real
// sequence.
func TestWalkCheckPassesValid(t *testing.T) {
	vals := []uint32{1, 5, 5, 9, 1, 5, 2, 2, 4, 4}
	for _, spec := range Candidates {
		s := Compress(vals, spec)
		if err := WalkCheck(s); err != nil {
			t.Fatalf("%s: WalkCheck rejected a valid stream: %v", spec, err)
		}
	}
}

// TestEncodeMatchesHandWriters: Encode lays every stream kind out exactly as
// the reflection-based writers it replaced did, field for field, on short,
// constant, ramp and random inputs.
func TestEncodeMatchesHandWriters(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	inputs := map[string][]uint32{"one": {7}, "const": make([]uint32, 300)}
	for _, n := range []int{300, 5000} {
		ramp, random := make([]uint32, n), make([]uint32, n)
		for i := range ramp {
			ramp[i], random[i] = uint32(3*i), rng.Uint32()>>uint(rng.Intn(32))
		}
		inputs[fmt.Sprint("ramp", n)], inputs[fmt.Sprint("random", n)] = ramp, random
	}
	for name, vals := range inputs {
		for _, spec := range Candidates {
			st := Compress(vals, spec)
			var e wire.Enc
			if err := Encode(&e, st); err != nil {
				t.Fatalf("%s %s: %v", name, spec, err)
			}
			var want bytes.Buffer
			switch s := st.(type) {
			case *verbatim:
				writeAll(&want, uint8(KindVerbatim))
				writeU32s(&want, s.vals)
				writeAll(&want, uint32(0))
			case *packed:
				writeAll(&want, uint8(KindPacked), uint32(s.width), uint32(s.m), uint32(0), uint32(len(s.data)/8))
				want.Write(s.data)
			case *fcmStream:
				kind := KindFCM
				if s.stride {
					kind = KindDFCM
				}
				writeAll(&want, uint8(kind), uint32(s.m), uint32(s.order), uint32(s.tbBits), uint32(0), s.size)
				writeZeroU32s(&want, 1<<s.tbBits)
				writeU32s(&want, s.bltb0)
				writeZeroU32s(&want, s.winLen())
				writeEmptyBits(&want)
				writeAll(&want, s.bl.n, uint32(len(s.bl.words)), s.bl.words)
			case *lastNStream:
				kind := KindLastN
				if s.stride {
					kind = KindLastNStride
				}
				writeAll(&want, uint8(kind), b2u8(s.stride), uint32(s.m), uint32(s.n), uint32(s.idxBits), uint32(0), uint32(0), s.size)
				writeZeroU32s(&want, s.n)
				writeEmptyBits(&want)
				writeAll(&want, s.bl.n, uint32(len(s.bl.words)), s.bl.words)
			default:
				t.Fatalf("%s %s: unexpected %T", name, spec, st)
			}
			if !bytes.Equal(e.B, want.Bytes()) {
				t.Fatalf("%s %s (%T): Encode wrote %d bytes, the hand writers %d, or different ones", name, spec, st, len(e.B), want.Len())
			}
		}
	}
}

// saveTo writes s's serialized form to w.
func saveTo(w io.Writer, s Stream) error {
	var e wire.Enc
	if err := Encode(&e, s); err != nil {
		return err
	}
	_, err := w.Write(e.B)
	return err
}

// Hand writers of the serialized forms, for the tests that forge stream
// states a real stream never encodes (a cursor away from position 0, a
// non-empty FR store).

func writeAll(w io.Writer, vs ...interface{}) error {
	for _, v := range vs {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}

func writeU32s(w io.Writer, s []uint32) error {
	return writeAll(w, uint32(len(s)), s)
}

func writeZeroU32s(w io.Writer, n int) error {
	return writeU32s(w, make([]uint32, n))
}

func writeBits(w io.Writer, b *bitstack) error {
	words := b.words[:(b.n+63)>>6]
	return writeAll(w, b.n, uint32(len(words)), words)
}

func writeEmptyBits(w io.Writer) error {
	return writeAll(w, uint64(0), uint32(0))
}

func b2u8(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
