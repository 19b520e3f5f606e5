package stream

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"

	"wet/internal/wire"
)

// Save writes the stream's complete compressed state to w, so a later Load
// resumes traversal without recompressing. The state written is the
// canonical position-0 form — FR empty, BL full, predictor tables as they
// stand at the stream start (all zeros except last-n-free BL table) — which
// is byte-identical to what earlier versions wrote for a freshly compressed
// stream, so the format is unchanged. Checkpoints are not serialized; Load
// rebuilds them. Callers that save many streams should pass a buffered
// writer.
func Save(w io.Writer, s Stream) error {
	switch t := s.(type) {
	case *verbatim:
		return t.save(w)
	case *packed:
		return t.save(w)
	case *fcmStream:
		return t.save(w)
	case *lastNStream:
		return t.save(w)
	case *Evictable:
		// The retained bytes ARE the serialized form; no decode needed.
		_, err := w.Write(t.raw)
		return err
	}
	return fmt.Errorf("stream: cannot serialize %T", s)
}

// Load decodes the stream Save wrote at the front of b and reports how many
// bytes it occupied, so streams can be concatenated in one container.
//
// Load is the package's error boundary for untrusted input: every length,
// count, and structural field is validated (and every allocation is bounded
// by the bytes actually present), malformed input returns an error, and any
// residual decoder panic is converted to an error rather than escaping.
// After structural validation, Load normalizes the state with one forward
// decode of the whole stream — building the FR store and the seek
// checkpoints, and certifying that the BL store drains exactly over the full
// length and is the canonical one (see lastNStream.load, fcmEnc.load).
// Entry stores forged to pass structural validation therefore fail here, at
// Load, not in a later query. The panics that remain on Cursor
// itself — Next past the end, Prev past the start, Seek out of range — are
// programmer-error assertions on cursor discipline, not input validation.
func Load(b []byte) (Stream, int, error) { return decode(b, false) }

// Scan consumes exactly the bytes Load would, but defers the normalization
// traversal: predictor-backed streams (FCM, dFCM, last-n families) come back
// as *Evictable streams that keep their serialized bytes — a view of b, which
// must not change afterwards, until Own copies it — and Load them on first
// NewCursor, single-flight, so concurrent first touches materialize once.
// Packed streams, which have no normalization cost (their payload is read in
// place), are returned ready but as views of b too, until Own copies them.
// Verbatim streams are returned materialized.
//
// Scan performs the same structural validation as Load (every length,
// count, and table size is checked here), but the traversal certification
// Load performs eagerly is deferred with the decode: an entry store forged
// to pass structural checks surfaces at first touch, as a *DecodeError (the
// panic value of NewCursor, the error of Force), rather than as an error
// here. Callers wanting up-front certification of untrusted input should use
// Load.
func Scan(b []byte) (Stream, int, error) { return decode(b, true) }

func decode(b []byte, lazy bool) (s Stream, n int, err error) {
	defer func() {
		if p := recover(); p != nil {
			s, n, err = nil, 0, fmt.Errorf("stream: corrupt stream state: %v", p)
		}
	}()
	d := wire.NewDec(b)
	kind := Kind(d.U8())
	if err := d.Err(); err != nil {
		return nil, 0, err
	}
	switch kind {
	case KindVerbatim:
		s, err = loadVerbatim(d)
	case KindPacked:
		s, err = loadPacked(d, lazy)
	case KindFCM, KindDFCM:
		// A lazy scan checks the structure and steps over the arrays; the
		// first touch decodes them from the retained bytes.
		d.Skim = lazy
		e, size, rerr := readFCMState(d, kind)
		switch {
		case rerr != nil:
			err = rerr
		case lazy:
			s = &Evictable{spec: Spec{kind, e.order}, m: e.m, size: size, raw: b[:d.Offset()]}
		default:
			s, err = normalizeFCM(&e)
		}
	case KindLastN, KindLastNStride:
		d.Skim = lazy
		e, size, rerr := readLastNState(d, kind)
		switch {
		case rerr != nil:
			err = rerr
		case lazy:
			s = &Evictable{spec: Spec{kind, e.n}, m: e.m, size: size, raw: b[:d.Offset()]}
		default:
			s, err = normalizeLastN(&e)
		}
	default:
		err = fmt.Errorf("stream: unknown stream tag %d", kind)
	}
	if err != nil {
		return nil, 0, err
	}
	return s, d.Offset(), nil
}

// WalkCheck certifies that a stream can be traversed over its whole length
// in both directions without panicking: it walks a fresh cursor to the end
// and back under a recover boundary, so both entry stores are fully
// decoded. Load already performs this certification during normalization;
// WalkCheck remains for callers holding streams from other sources.
func WalkCheck(s Stream) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("stream: corrupt stream state: %v", p)
		}
	}()
	c := s.NewCursor()
	for c.Pos() < c.Len() {
		c.Next()
	}
	for c.Pos() > 0 {
		c.Prev()
	}
	return nil
}

// --- encoding helpers ---

func writeAll(w io.Writer, vs ...interface{}) error {
	for _, v := range vs {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}

func writeU32s(w io.Writer, s []uint32) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, s)
}

// writeZeroU32s writes a length-prefixed all-zero sequence (the canonical
// serialized form of a predictor table at position 0).
func writeZeroU32s(w io.Writer, n int) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(n)); err != nil {
		return err
	}
	zeros := make([]uint32, min(n, 1<<16))
	for n > 0 {
		c := min(n, len(zeros))
		if err := binary.Write(w, binary.LittleEndian, zeros[:c]); err != nil {
			return err
		}
		n -= c
	}
	return nil
}

// readU32s reads a length-prefixed sequence of exactly want values (want < 0:
// any plausible length). The count is checked before the values are decoded.
func readU32s(d *wire.Dec, want int, what string) ([]uint32, error) {
	n := d.U32()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n > 1<<28 {
		return nil, fmt.Errorf("stream: implausible sequence length %d", n)
	}
	if want >= 0 && int(n) != want {
		return nil, fmt.Errorf("stream: %s has %d values, want %d", what, n, want)
	}
	s := d.U32s(int(n))
	return s, d.Err()
}

func writeBits(w io.Writer, b *bitstack) error {
	if err := binary.Write(w, binary.LittleEndian, b.n); err != nil {
		return err
	}
	words := b.words[:(b.n+63)>>6]
	if err := binary.Write(w, binary.LittleEndian, uint32(len(words))); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, words)
}

// writeBitvec writes an immutable bit vector in the bitstack wire form.
func writeBitvec(w io.Writer, v *bitvec) error {
	if err := binary.Write(w, binary.LittleEndian, v.n); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(v.words))); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, v.words)
}

// writeEmptyBits writes a zero-length bit vector (the canonical FR store at
// position 0).
func writeEmptyBits(w io.Writer) error {
	return writeAll(w, uint64(0), uint32(0))
}

func readBits(d *wire.Dec) (bitstack, error) {
	b := bitstack{n: d.U64()}
	nw := d.U32()
	if err := d.Err(); err != nil {
		return b, err
	}
	if nw > 1<<26 || b.n > uint64(nw)*64 {
		return b, fmt.Errorf("stream: inconsistent bit vector (%d bits, %d words)", b.n, nw)
	}
	b.words = d.U64s(int(nw))
	return b, d.Err()
}

// --- per-type state ---

func (v *verbatim) save(w io.Writer) error {
	if err := writeAll(w, uint8(KindVerbatim)); err != nil {
		return err
	}
	if err := writeU32s(w, v.vals); err != nil {
		return err
	}
	return writeAll(w, uint32(0)) // canonical cursor-free position
}

func loadVerbatim(d *wire.Dec) (*verbatim, error) {
	vals, err := readU32s(d, -1, "")
	if err != nil {
		return nil, err
	}
	pos := d.U32()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if int(pos) > len(vals) {
		return nil, fmt.Errorf("stream: verbatim cursor %d outside [0,%d]", pos, len(vals))
	}
	return &verbatim{vals: vals}, nil
}

func (p *packed) save(w io.Writer) error {
	if err := writeAll(w, uint8(KindPacked), uint32(p.width), uint32(p.m), uint32(0), uint32(len(p.data)/8)); err != nil {
		return err
	}
	_, err := w.Write(p.data)
	return err
}

// loadPacked reads a packed stream whose payload is a view of d's bytes
// (view) or a copy of them.
func loadPacked(d *wire.Dec, view bool) (*packed, error) {
	width, m, pos, nw := d.U32(), d.U32(), d.U32(), d.U32()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if width > 32 {
		return nil, fmt.Errorf("stream: packed width %d exceeds 32", width)
	}
	if m > 1<<28 || nw > 1<<26 {
		return nil, fmt.Errorf("stream: implausible packed dimensions (%d values, %d words)", m, nw)
	}
	if pos > m {
		return nil, fmt.Errorf("stream: packed cursor %d outside [0,%d]", pos, m)
	}
	if need := (uint64(m)*uint64(width) + 63) / 64; uint64(nw) < need {
		return nil, fmt.Errorf("stream: packed payload has %d words, %d values of width %d need %d", nw, m, width, need)
	}
	data := d.Bytes(8 * int(nw))
	if err := d.Err(); err != nil {
		return nil, err
	}
	if !view {
		data = bytes.Clone(data)
	}
	return &packed{width: uint(width), m: int(m), data: data}, nil
}

func (s *fcmStream) save(w io.Writer) error {
	kind := KindFCM
	if s.stride {
		kind = KindDFCM
	}
	if err := writeAll(w, uint8(kind), uint32(s.m), uint32(s.order),
		uint32(s.tbBits), uint32(0), s.size); err != nil {
		return err
	}
	// Position-0 state: FR table and window are canonically all zeros.
	if err := writeZeroU32s(w, 1<<s.tbBits); err != nil {
		return err
	}
	if err := writeU32s(w, s.bltb0); err != nil {
		return err
	}
	if err := writeZeroU32s(w, s.winLen()); err != nil {
		return err
	}
	if err := writeEmptyBits(w); err != nil {
		return err
	}
	return writeBitvec(w, &s.bl)
}

// readFCMState is the structural half of an FCM load: it consumes exactly
// the serialized bytes, validates every length, count, and table size, and
// returns the still-unnormalized encoder plus the size the writer recorded.
// (Under a skimming decoder the encoder's arrays stay nil.)
func readFCMState(d *wire.Dec, kind Kind) (e fcmEnc, size uint64, err error) {
	m, order, tbBits, pos := d.U32(), d.U32(), d.U32(), d.U32()
	size = d.U64()
	if err := d.Err(); err != nil {
		return e, 0, err
	}
	if order < 1 || order > 64 {
		return e, 0, fmt.Errorf("stream: fcm order %d outside [1,64]", order)
	}
	if tbBits > 26 {
		return e, 0, fmt.Errorf("stream: fcm table bits %d exceed 26", tbBits)
	}
	if pos > m {
		return e, 0, fmt.Errorf("stream: fcm cursor %d outside [0,%d]", pos, m)
	}
	e = fcmEnc{m: int(m), order: int(order), tbBits: uint(tbBits), pos: int(pos), stride: kind == KindDFCM}
	// The predictor tables are indexed by tbBits-masked hashes and the
	// window length encodes the stride flag; any mismatch would index out
	// of bounds when the stream is stepped.
	wantWin := e.order
	if e.stride {
		wantWin++
	}
	if e.frtb, err = readU32s(d, 1<<e.tbBits, "fcm FR table"); err != nil {
		return e, 0, err
	}
	if e.bltb, err = readU32s(d, 1<<e.tbBits, "fcm BL table"); err != nil {
		return e, 0, err
	}
	if e.win, err = readU32s(d, wantWin, "fcm window"); err != nil {
		return e, 0, err
	}
	if e.fr, err = readBits(d); err != nil {
		return e, 0, err
	}
	if e.bl, err = readBits(d); err != nil {
		return e, 0, err
	}
	return e, size, nil
}

// normalizeFCM walks the loaded encoder to the start if an older writer
// saved it elsewhere (FR must drain exactly and leave the all-zero start
// state), keeps the position-0 BL store and table as the stream's, and
// decodes forward once to build the rest (fcmEnc.load). Decoding panics
// on forged stores are converted to errors by the Load/Scan recover
// boundary.
func normalizeFCM(e *fcmEnc) (Stream, error) {
	for e.pos > 0 {
		e.prev()
	}
	if !e.fr.empty() {
		return nil, fmt.Errorf("stream: fcm FR store holds %d bits beyond the cursor", e.fr.bits())
	}
	if !allZero(e.frtb) || !allZero(e.win) {
		return nil, fmt.Errorf("stream: fcm FR table or window not zero at position 0")
	}
	s, err := e.load()
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (s *lastNStream) save(w io.Writer) error {
	kind := KindLastN
	if s.stride {
		kind = KindLastNStride
	}
	if err := writeAll(w, uint8(kind), uint8(b2u8(s.stride)), uint32(s.m),
		uint32(s.n), uint32(s.idxBits), uint32(0), uint32(0), s.size); err != nil {
		return err
	}
	// Position-0 state: the move-to-front table is canonically all zeros
	// and lastVal is 0 (written above).
	if err := writeZeroU32s(w, s.n); err != nil {
		return err
	}
	if err := writeEmptyBits(w); err != nil {
		return err
	}
	return writeBitvec(w, &s.bl)
}

// readLastNState is the structural half of a last-n load (see readFCMState).
func readLastNState(d *wire.Dec, kind Kind) (e lastNEnc, size uint64, err error) {
	strideB := d.U8()
	m, n, idxBits, pos, lastVal := d.U32(), d.U32(), d.U32(), d.U32(), d.U32()
	size = d.U64()
	if err := d.Err(); err != nil {
		return e, 0, err
	}
	if (strideB == 1) != (kind == KindLastNStride) {
		return e, 0, fmt.Errorf("stream: last-n stride flag %d contradicts tag %v", strideB, kind)
	}
	if n < 2 || n > 1<<20 || n&(n-1) != 0 {
		return e, 0, fmt.Errorf("stream: last-n table size %d not a power of two in [2,2^20]", n)
	}
	if idxBits != uint32(bits.TrailingZeros32(n)) {
		return e, 0, fmt.Errorf("stream: last-n index width %d inconsistent with table size %d", idxBits, n)
	}
	if pos > m {
		return e, 0, fmt.Errorf("stream: last-n cursor %d outside [0,%d]", pos, m)
	}
	e = lastNEnc{
		m: int(m), n: int(n), idxBits: uint(idxBits), pos: int(pos),
		lastVal: lastVal, stride: strideB == 1,
	}
	// Hit entries index tb through idxBits-wide values; a short table would
	// index out of bounds when the stream is stepped.
	if e.tb, err = readU32s(d, e.n, "last-n table"); err != nil {
		return e, 0, err
	}
	if e.fr, err = readBits(d); err != nil {
		return e, 0, err
	}
	if e.bl, err = readBits(d); err != nil {
		return e, 0, err
	}
	return e, size, nil
}

// normalizeLastN is normalizeFCM for the last-n kinds; the forward pass is
// the decode kernel lastNStream.load.
func normalizeLastN(e *lastNEnc) (Stream, error) {
	for e.pos > 0 {
		e.prev()
	}
	if !e.fr.empty() {
		return nil, fmt.Errorf("stream: last-n FR store holds %d bits beyond the cursor", e.fr.bits())
	}
	if !allZero(e.tb) || e.lastVal != 0 {
		return nil, fmt.Errorf("stream: last-n table or last value not zero at position 0")
	}
	// The loaded words become the stream's BL store as they are, trimmed of
	// any the bit length does not reach.
	bl := bitvec{words: e.bl.words[:(e.bl.n+63)>>6], n: e.bl.n}
	s := &lastNStream{m: e.m, n: e.n, idxBits: e.idxBits, stride: e.stride, bl: bl}
	if err := s.load(e.tb); err != nil {
		return nil, err
	}
	return s, nil
}

func b2u8(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
