package stream

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
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
	case *lazyStream:
		return Save(w, t.materialize())
	case *Evictable:
		// The retained bytes ARE the serialized form; no decode needed.
		_, err := w.Write(t.raw)
		return err
	}
	return fmt.Errorf("stream: cannot serialize %T", s)
}

// Load reads a stream previously written by Save. It consumes exactly the
// bytes Save wrote, so streams can be concatenated in one container.
//
// Load is the package's error boundary for untrusted input: every length,
// count, and structural field is validated (and allocations are bounded by
// the bytes actually present), malformed input returns an error, and any
// residual decoder panic is converted to an error rather than escaping.
// After structural validation, Load normalizes the state with one forward
// decode of the whole stream — building the FR store and the seek
// checkpoints, and certifying that the BL store drains exactly over the full
// length and is the canonical one (see lastNStream.load, fcmEnc.load).
// Entry stores forged to pass structural validation therefore fail here, at
// Load, not in a later query. The panics that remain on Cursor
// itself — Next past the end, Prev past the start, Seek out of range — are
// programmer-error assertions on cursor discipline, not input validation.
func Load(r io.Reader) (s Stream, err error) {
	defer func() {
		if p := recover(); p != nil {
			s, err = nil, fmt.Errorf("stream: corrupt stream state: %v", p)
		}
	}()
	var tag uint8
	if err := binary.Read(r, binary.LittleEndian, &tag); err != nil {
		return nil, err
	}
	switch Kind(tag) {
	case KindVerbatim:
		return loadVerbatim(r)
	case KindPacked:
		return loadPacked(r)
	case KindFCM, KindDFCM:
		return loadFCM(r, Kind(tag))
	case KindLastN, KindLastNStride:
		return loadLastN(r, Kind(tag))
	}
	return nil, fmt.Errorf("stream: unknown stream tag %d", tag)
}

// Scan reads a stream previously written by Save, consuming exactly the
// bytes Load would, but defers the normalization traversal: predictor-backed
// streams (FCM, dFCM, last-n families) come back as lazy streams that run
// the decode and checkpoint rebuild on first NewCursor — single-flight, so
// concurrent first touches materialize once — while verbatim and packed
// streams, which have no normalization cost, are returned materialized.
//
// Scan performs the same structural validation as Load (every length,
// count, and table size is checked here), but the traversal certification
// Load performs eagerly is deferred with the decode: an entry store forged
// to pass structural checks surfaces as a panic at first touch rather than
// an error at load time. Callers wanting up-front certification of
// untrusted input should use Load.
func Scan(r io.Reader) (s Stream, err error) {
	defer func() {
		if p := recover(); p != nil {
			s, err = nil, fmt.Errorf("stream: corrupt stream state: %v", p)
		}
	}()
	var tag uint8
	if err := binary.Read(r, binary.LittleEndian, &tag); err != nil {
		return nil, err
	}
	switch kind := Kind(tag); kind {
	case KindVerbatim:
		return loadVerbatim(r)
	case KindPacked:
		return loadPacked(r)
	case KindFCM, KindDFCM:
		e, size, err := readFCMState(r, kind)
		if err != nil {
			return nil, err
		}
		name := Spec{kind, e.order}.String()
		return newLazyStream(name, e.m, size, func() (Stream, error) {
			return runNormalize(func() (Stream, error) { return normalizeFCM(e) })
		}), nil
	case KindLastN, KindLastNStride:
		e, size, err := readLastNState(r, kind)
		if err != nil {
			return nil, err
		}
		name := Spec{kind, e.n}.String()
		return newLazyStream(name, e.m, size, func() (Stream, error) {
			return runNormalize(func() (Stream, error) { return normalizeLastN(e) })
		}), nil
	}
	return nil, fmt.Errorf("stream: unknown stream tag %d", tag)
}

// runNormalize runs a deferred normalization under the same recover boundary
// Load gives the eager one, so a decoding panic on a forged store comes back
// as an error no matter when the decode happens.
func runNormalize(fn func() (Stream, error)) (s Stream, err error) {
	defer func() {
		if p := recover(); p != nil {
			s, err = nil, fmt.Errorf("stream: corrupt stream state: %v", p)
		}
	}()
	return fn()
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

func readAll(r io.Reader, vs ...interface{}) error {
	for _, v := range vs {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
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
	zeros := make([]uint32, minInt(n, allocChunk))
	for n > 0 {
		c := minInt(n, allocChunk)
		if err := binary.Write(w, binary.LittleEndian, zeros[:c]); err != nil {
			return err
		}
		n -= c
	}
	return nil
}

// allocChunk bounds how many elements a single deserialization step
// allocates: a forged count costs at most one chunk before the short read
// surfaces, instead of a count-sized up-front allocation.
const allocChunk = 1 << 16

func readU32s(r io.Reader) ([]uint32, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n > 1<<28 {
		return nil, fmt.Errorf("stream: implausible sequence length %d", n)
	}
	if n == 0 {
		return nil, nil
	}
	s := make([]uint32, 0, minInt(int(n), allocChunk))
	for len(s) < int(n) {
		c := minInt(int(n)-len(s), allocChunk)
		old := len(s)
		s = append(s, make([]uint32, c)...)
		if err := binary.Read(r, binary.LittleEndian, s[old:]); err != nil {
			return nil, err
		}
	}
	return s, nil
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

func readBits(r io.Reader) (bitstack, error) {
	var b bitstack
	var nw uint32
	if err := readAll(r, &b.n, &nw); err != nil {
		return b, err
	}
	if nw > 1<<26 || b.n > uint64(nw)*64 {
		return b, fmt.Errorf("stream: inconsistent bit vector (%d bits, %d words)", b.n, nw)
	}
	if nw == 0 {
		return b, nil
	}
	b.words = make([]uint64, 0, minInt(int(nw), allocChunk))
	for len(b.words) < int(nw) {
		c := minInt(int(nw)-len(b.words), allocChunk)
		old := len(b.words)
		b.words = append(b.words, make([]uint64, c)...)
		if err := binary.Read(r, binary.LittleEndian, b.words[old:]); err != nil {
			return b, err
		}
	}
	return b, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
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

func loadVerbatim(r io.Reader) (*verbatim, error) {
	vals, err := readU32s(r)
	if err != nil {
		return nil, err
	}
	var pos uint32
	if err := readAll(r, &pos); err != nil {
		return nil, err
	}
	if int(pos) > len(vals) {
		return nil, fmt.Errorf("stream: verbatim cursor %d outside [0,%d]", pos, len(vals))
	}
	return &verbatim{vals: vals}, nil
}

func (p *packed) save(w io.Writer) error {
	if err := writeAll(w, uint8(KindPacked), uint32(p.width), uint32(p.m), uint32(0)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(p.data.words))); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, p.data.words)
}

func loadPacked(r io.Reader) (*packed, error) {
	var width, m, pos, nw uint32
	if err := readAll(r, &width, &m, &pos, &nw); err != nil {
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
	p := &packed{width: uint(width), m: int(m)}
	words := make([]uint64, 0, minInt(int(nw), allocChunk))
	for len(words) < int(nw) {
		c := minInt(int(nw)-len(words), allocChunk)
		old := len(words)
		words = append(words, make([]uint64, c)...)
		if err := binary.Read(r, binary.LittleEndian, words[old:]); err != nil {
			return nil, err
		}
	}
	p.data = bitvec{words: words, n: uint64(m) * uint64(width)}
	return p, nil
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

func loadFCM(r io.Reader, kind Kind) (Stream, error) {
	e, _, err := readFCMState(r, kind)
	if err != nil {
		return nil, err
	}
	return normalizeFCM(e)
}

// readFCMState performs the structural half of loadFCM: it consumes exactly
// the serialized bytes, validates every length, count, and table size, and
// returns the still-unnormalized encoder plus the size the writer recorded.
func readFCMState(r io.Reader, kind Kind) (*fcmEnc, uint64, error) {
	var m, order, tbBits, pos uint32
	var size uint64
	if err := readAll(r, &m, &order, &tbBits, &pos, &size); err != nil {
		return nil, 0, err
	}
	if order < 1 || order > 64 {
		return nil, 0, fmt.Errorf("stream: fcm order %d outside [1,64]", order)
	}
	if tbBits > 26 {
		return nil, 0, fmt.Errorf("stream: fcm table bits %d exceed 26", tbBits)
	}
	if pos > m {
		return nil, 0, fmt.Errorf("stream: fcm cursor %d outside [0,%d]", pos, m)
	}
	e := &fcmEnc{m: int(m), order: int(order), tbBits: uint(tbBits), pos: int(pos)}
	var err error
	if e.frtb, err = readU32s(r); err != nil {
		return nil, 0, err
	}
	if e.bltb, err = readU32s(r); err != nil {
		return nil, 0, err
	}
	if e.win, err = readU32s(r); err != nil {
		return nil, 0, err
	}
	// The predictor tables are indexed by tbBits-masked hashes and the
	// window length encodes the stride flag; any mismatch would index out
	// of bounds when the stream is stepped.
	if len(e.frtb) != 1<<e.tbBits || len(e.bltb) != 1<<e.tbBits {
		return nil, 0, fmt.Errorf("stream: fcm tables sized %d/%d, want %d", len(e.frtb), len(e.bltb), 1<<e.tbBits)
	}
	wantWin := e.order
	if kind == KindDFCM {
		wantWin = e.order + 1
	}
	if len(e.win) != wantWin {
		return nil, 0, fmt.Errorf("stream: fcm window has %d values, %v of order %d needs %d",
			len(e.win), Spec{kind, e.order}, e.order, wantWin)
	}
	e.stride = kind == KindDFCM
	if e.fr, err = readBits(r); err != nil {
		return nil, 0, err
	}
	if e.bl, err = readBits(r); err != nil {
		return nil, 0, err
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
	if snapTable(e.frtb) != nil || snapTable(e.win) != nil {
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

func loadLastN(r io.Reader, kind Kind) (Stream, error) {
	e, _, err := readLastNState(r, kind)
	if err != nil {
		return nil, err
	}
	return normalizeLastN(e)
}

// readLastNState is the structural half of loadLastN (see readFCMState).
func readLastNState(r io.Reader, kind Kind) (*lastNEnc, uint64, error) {
	var strideB uint8
	var m, n, idxBits, pos uint32
	var lastVal uint32
	var size uint64
	if err := readAll(r, &strideB, &m, &n, &idxBits, &pos, &lastVal, &size); err != nil {
		return nil, 0, err
	}
	if (strideB == 1) != (kind == KindLastNStride) {
		return nil, 0, fmt.Errorf("stream: last-n stride flag %d contradicts tag %v", strideB, kind)
	}
	if n < 2 || n > 1<<20 || n&(n-1) != 0 {
		return nil, 0, fmt.Errorf("stream: last-n table size %d not a power of two in [2,2^20]", n)
	}
	if idxBits != uint32(bits.TrailingZeros32(n)) {
		return nil, 0, fmt.Errorf("stream: last-n index width %d inconsistent with table size %d", idxBits, n)
	}
	if pos > m {
		return nil, 0, fmt.Errorf("stream: last-n cursor %d outside [0,%d]", pos, m)
	}
	e := &lastNEnc{
		m: int(m), n: int(n), idxBits: uint(idxBits), pos: int(pos),
		lastVal: lastVal, stride: strideB == 1,
	}
	var err error
	if e.tb, err = readU32s(r); err != nil {
		return nil, 0, err
	}
	// Hit entries index tb through idxBits-wide values; a short table would
	// index out of bounds when the stream is stepped.
	if len(e.tb) != int(n) {
		return nil, 0, fmt.Errorf("stream: last-n table has %d entries, want %d", len(e.tb), n)
	}
	if e.fr, err = readBits(r); err != nil {
		return nil, 0, err
	}
	if e.bl, err = readBits(r); err != nil {
		return nil, 0, err
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
	if snapTable(e.tb) != nil || e.lastVal != 0 {
		return nil, fmt.Errorf("stream: last-n table or last value not zero at position 0")
	}
	// The loaded words become the stream's BL store as they are, trimmed of
	// any the bit length does not reach.
	bl := bitvec{words: e.bl.words[:(e.bl.n+63)>>6], n: e.bl.n}
	s := &lastNStream{m: e.m, n: e.n, idxBits: e.idxBits, stride: e.stride, bl: bl}
	if err := s.load(); err != nil {
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
