package stream

import (
	"bytes"
	"fmt"
	"math/bits"

	"wet/internal/wire"
)

// Encode appends the stream's complete compressed state to e, so a later
// Load resumes traversal without recompressing. The state written is the
// canonical position-0 form — FR empty, BL full, predictor tables as they
// stand at the stream start (all zeros except last-n-free BL table) — which
// is byte-identical to what earlier versions wrote for a freshly compressed
// stream, so the format is unchanged. Checkpoints are not serialized; Load
// rebuilds them.
func Encode(e *wire.Enc, s Stream) error {
	switch t := s.(type) {
	case *verbatim:
		t.encode(e)
	case *packed:
		t.encode(e)
	case *fcmStream:
		t.encode(e)
	case *lastNStream:
		t.encode(e)
	case *Evictable:
		// The retained bytes ARE the serialized form; no decode needed.
		e.Raw(t.raw)
	default:
		return fmt.Errorf("stream: cannot serialize %T", s)
	}
	return nil
}

// Load decodes the stream Encode wrote at the front of b and reports how many
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

// putU32s puts a length-prefixed sequence.
func putU32s(e *wire.Enc, s []uint32) {
	e.U32(uint32(len(s)))
	e.U32s(s)
}

// putZeroU32s puts a length-prefixed all-zero sequence (the canonical
// serialized form of a predictor table at position 0).
func putZeroU32s(e *wire.Enc, n int) {
	e.U32(uint32(n))
	e.Zeros(4 * n)
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

// putBitvec puts an immutable bit vector in the bitstack wire form.
func putBitvec(e *wire.Enc, v *bitvec) {
	e.U64(v.n)
	e.U32(uint32(len(v.words)))
	e.U64s(v.words)
}

// putEmptyBits puts a zero-length bit vector (the canonical FR store at
// position 0).
func putEmptyBits(e *wire.Enc) {
	e.U64(0)
	e.U32(0)
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

func (v *verbatim) encode(e *wire.Enc) {
	e.U8(uint8(KindVerbatim))
	putU32s(e, v.vals)
	e.U32(0) // canonical cursor-free position
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

func (p *packed) encode(e *wire.Enc) {
	e.U8(uint8(KindPacked))
	e.U32(uint32(p.width))
	e.U32(uint32(p.m))
	e.U32(0)
	e.U32(uint32(len(p.data) / 8))
	e.Raw(p.data)
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

func (s *fcmStream) encode(e *wire.Enc) {
	kind := KindFCM
	if s.stride {
		kind = KindDFCM
	}
	e.U8(uint8(kind))
	e.U32(uint32(s.m))
	e.U32(uint32(s.order))
	e.U32(uint32(s.tbBits))
	e.U32(0)
	e.U64(s.size)
	// Position-0 state: FR table and window are canonically all zeros.
	putZeroU32s(e, 1<<s.tbBits)
	putU32s(e, s.bltb0)
	putZeroU32s(e, s.winLen())
	putEmptyBits(e)
	putBitvec(e, &s.bl)
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

func (s *lastNStream) encode(e *wire.Enc) {
	kind := KindLastN
	if s.stride {
		kind = KindLastNStride
	}
	e.U8(uint8(kind))
	e.Bool(s.stride)
	e.U32(uint32(s.m))
	e.U32(uint32(s.n))
	e.U32(uint32(s.idxBits))
	e.U32(0) // cursor
	e.U32(0) // lastVal
	e.U64(s.size)
	// Position-0 state: the move-to-front table is canonically all zeros
	// and lastVal is 0 (written above).
	putZeroU32s(e, s.n)
	putEmptyBits(e)
	putBitvec(e, &s.bl)
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
