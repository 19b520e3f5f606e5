package stream

import (
	"fmt"
	"math/bits"
	"sync"
)

// The bidirectional last-n predictor (paper §4, Figure 7) follows the same
// encoder / immutable stream / detached cursor split as FCM. A single
// move-to-front table of the n most recent distinct values (or strides)
// serves both directions. FR entries carry the move-to-front mutation
// (hit: the matching index; miss: the evicted value), which the backward
// step undoes exactly; BL entries are pure references against the current
// table (hit: index; miss: the literal value) and mutate nothing. Undoing
// every mutation on the way back to position 0 returns the table to all
// zeros, so the canonical start state needs no stored table at all.

// --- encoder ---

// encodeLastN builds the last-n stream of vals in two passes, without the
// bit stacks of the reference encoder (encode_test.go). The first runs the
// move-to-front table forward, writes the FR entries and captures the
// checkpoints. A BL entry (pushRef's reference against the same table) is
// as wide as its FR twin and equal to it on a hit; on a miss it carries the
// literal where FR carries the evicted value. So the second pass pops FR
// entries from the top by their flag bit and stacks their twins into BL,
// position 0 on top.
func encodeLastN(vals []uint32, n int, stride bool) *lastNStream {
	if n < 2 || n&(n-1) != 0 {
		panic("stream: last-n table size must be a power of two >= 2")
	}
	m := len(vals)
	s := &lastNStream{m: m, n: n, idxBits: uint(bits.TrailingZeros(uint(n))), stride: stride}
	hitW, flag := uint64(s.idxBits)+1, uint64(1)<<s.idxBits
	sp := ckSpacing(m, s.stateBits())
	nextCk, nCks := m, 2
	if sp > 0 {
		nextCk, nCks = sp, 2+(m-1)/sp
	}
	cks := make([]lastNCk, 1, nCks)

	// FR is written into a pooled buffer sized for all misses, then copied
	// out at its length.
	bp, _ := frScratch.Get().(*[]uint64)
	if bp == nil {
		bp = new([]uint64)
	}
	if need := (m*33 + 63) / 64; cap(*bp) < need {
		*bp = make([]uint64, need)
	}
	fw := bitWriter{words: (*bp)[:cap(*bp)]}
	tb := make([]uint32, n)
	var frLen uint64
	var lastVal uint32
	for pos, v := range vals {
		if pos == nextCk {
			cks = append(cks, lastNCk{pos: pos, frLen: frLen, tb: snapTable(tb), lastVal: lastVal})
			nextCk += sp
		}
		x := v
		if stride {
			x, lastVal = v-lastVal, v
		}
		entry, width := flag, hitW // a hit on slot 0
		if tb[0] != x {
			// Search and shift together (see sizeLastNAll); carry ends as
			// the evicted value on a miss.
			carry := tb[0]
			tb[0] = x
			i := 1
			for ; i < n; i++ {
				carry, tb[i] = tb[i], carry
				if carry == x {
					break
				}
			}
			if i < n {
				entry = flag | uint64(i)
			} else {
				entry, width = uint64(carry), 33
			}
		}
		frLen += width
		fw.put(entry, width)
	}
	fw.flush()

	nw := int((frLen + 63) / 64)
	var bw bitWriter
	if nw > 0 {
		bw.words = make([]uint64, nw)
	}
	fr, end := fw.words, frLen
	for p := m - 1; p >= 0; p-- {
		var entry, width uint64
		if f := end - 1; fr[f>>6]>>(f&63)&1 == 1 {
			start := end - hitW
			entry = fr[start>>6] >> (start & 63)
			if start&63+hitW > 64 {
				entry |= fr[start>>6+1] << (64 - start&63)
			}
			entry, width = entry&(1<<hitW-1), hitW
		} else {
			x := vals[p]
			if stride && p > 0 {
				x -= vals[p-1]
			}
			entry, width = uint64(x), 33
		}
		end -= width
		bw.put(entry, width)
	}
	bw.flush()

	var frWords []uint64
	if nw > 0 {
		frWords = append([]uint64(nil), fr[:nw]...)
	}
	frScratch.Put(bp)
	for i := range cks {
		cks[i].blLen = frLen - cks[i].frLen
	}
	if m > 0 {
		ck := lastNCk{pos: m, frLen: frLen, lastVal: lastVal}
		if !allZero(tb) {
			ck.tb = tb // the pass is done with the table: no copy
		}
		cks = append(cks, ck)
	}
	s.bl = bitvec{words: bw.words, n: frLen}
	s.seal(bitvec{words: frWords, n: frLen}, cks)
	return s
}

// frScratch holds the buffers encodeLastN writes FR stores in before their
// length is known, as *[]uint64 like tablePools.
var frScratch sync.Pool

// lastNEnc is a mutable last-n encoder state as read from a file, which may
// sit at any position: normalizeLastN walks it back to position 0.
type lastNEnc struct {
	m       int
	n       int // table size (power of two)
	idxBits uint
	stride  bool
	tb      []uint32 // tb[0] is the most recent
	lastVal uint32   // previous value; stride mode only
	fr, bl  bitstack
	pos     int
}

// decode pops an FR entry, undoes its table mutation, and returns the value.
func (e *lastNEnc) decode() uint32 {
	x := e.tb[0]
	if e.fr.popBit() {
		i := int(e.fr.popBits(e.idxBits))
		copy(e.tb[:i], e.tb[1:i+1])
		e.tb[i] = x
	} else {
		evicted := e.fr.popBits(32)
		copy(e.tb[:e.n-1], e.tb[1:])
		e.tb[e.n-1] = evicted
	}
	return x
}

// pushRef pushes a BL reference to x against the current table.
func (e *lastNEnc) pushRef(x uint32) {
	for i, v := range e.tb {
		if v == x {
			e.bl.pushBits(uint32(i), e.idxBits)
			e.bl.pushBit(true)
			return
		}
	}
	e.bl.pushBits(x, 32)
	e.bl.pushBit(false)
}

func (e *lastNEnc) prev() uint32 {
	if e.pos == 0 {
		panic("stream: Prev past start")
	}
	x := e.decode()
	e.pushRef(x)
	e.pos--
	if e.stride {
		v := e.lastVal
		e.lastVal = v - x
		return v
	}
	return x
}

// --- immutable stream ---

// lastNCk is one seek checkpoint of a last-n stream.
type lastNCk struct {
	pos          int
	frLen, blLen uint64
	tb           []uint32 // nil = all zeros
	lastVal      uint32
}

type lastNStream struct {
	m       int
	n       int
	idxBits uint
	stride  bool
	fr      bitvec // full FR store (state at pos m)
	bl      bitvec // full BL store (state at pos 0)
	cks     []lastNCk
	size    uint64
	ckBits  uint64
	stats   *SeekCounters // per-trace seek accounting; nil = none
}

// stateBits is what one checkpoint's cursor state costs, for ckSpacing.
func (s *lastNStream) stateBits() uint64 { return uint64(s.n)*32 + 32 + 3*64 }

// seal installs what a full pass over the stream produced: the FR store as
// it stands at position m, whose length fixes SizeBits (BL is empty there),
// and the checkpoints (ascending by pos; [0] is the free start state) with
// their storage charge.
func (s *lastNStream) seal(fr bitvec, cks []lastNCk) {
	s.fr, s.cks = fr, cks
	s.size = fr.n + uint64(s.n)*32 + HeaderBits
	if s.stride {
		s.size += 32 // lastVal
	}
	for i := 1; i < len(cks); i++ {
		s.ckBits += 3*64 + 32 + uint64(len(cks[i].tb))*32
	}
}

func (s *lastNStream) Len() int               { return s.m }
func (s *lastNStream) SizeBits() uint64       { return s.size }
func (s *lastNStream) CheckpointBits() uint64 { return s.ckBits }

func (s *lastNStream) Name() string {
	if s.stride {
		return methodName(KindLastNStride, s.n)
	}
	return methodName(KindLastN, s.n)
}

func (s *lastNStream) NewCursor() Cursor {
	return &lastNCursor{s: s, blLen: s.bl.n, tb: make([]uint32, s.n)}
}

// runPatterns[w] is a run of back-to-back w-bit hits on slot 0 (a flag over
// w-1 zero index bits) as topWindow shows it: left-aligned, flag first.
var runPatterns = func() (p [22]uint64) { // w = idxBits+1 <= 21
	for w := 2; w < len(p); w++ {
		for b := 63; b >= 0; b -= w {
			p[w] |= 1 << b
		}
	}
	return p
}()

// slot0Run is how many whole w-bit slot-0 hits lead win, of which the top
// valid bits are the store's. Such a hit leaves the move-to-front table as
// it is, so a run decodes as one value repeated (or one stride added).
func slot0Run(win, valid, w uint64) int {
	return int(min(uint64(bits.LeadingZeros64(win^runPatterns[w])), valid) / w)
}

// load completes a stream that holds only its position-0 BL store, as read
// from a file: one forward decode pass builds the FR store and captures the
// checkpoints encodeLastN would. tb is the all-zero position-0 table, which
// the pass steps forward and the end checkpoint keeps. The pass also checks that
// every BL entry is the one pushRef writes against the table at its position
// — a literal is not in the table, a hit names the first match — because Prev
// sizes the entry it steps over by that rule: a store that broke it would
// yield cursors whose blLen disagrees with the store. Both checks ride on the
// move-to-front shift, which visits exactly the slots they concern; a hit on
// slot 0 passes both, so a run of them is copied to FR in one put, capped at
// the next checkpoint so every checkpoint is captured where it always was.
//
// An FR entry is as wide as its BL twin (a hit entry is the same bits; a miss
// swaps the literal for the evicted value), so the two stores are equally
// long: FR is allocated once at BL's size, and the FR length at any position
// is the BL length consumed so far.
func (s *lastNStream) load(tb []uint32) error {
	m, bl := s.m, s.bl
	hitBits := uint64(s.idxBits) + 1
	idxMask := uint64(1)<<s.idxBits - 1
	last := len(tb) - 1
	blLen := s.bl.n
	fw := bitWriter{words: make([]uint64, len(bl.words))}
	var lastVal, strideMask uint32
	if s.stride {
		strideMask = ^uint32(0)
	}
	sp := ckSpacing(m, s.stateBits())
	nextCk, nCks := m, 2
	if sp > 0 {
		nextCk, nCks = sp, 2+(m-1)/sp
	}
	cks := make([]lastNCk, 1, nCks)
	cks[0] = lastNCk{blLen: blLen}
	var win, valid uint64 // the store's top bits, refilled below one literal's width
	for pos := 0; pos < m; {
		if pos == nextCk {
			cks = append(cks, lastNCk{pos: pos, frLen: s.bl.n - blLen, blLen: blLen, tb: snapTable(tb), lastVal: lastVal})
			nextCk += sp
		}
		// A store that ends early fails one of these three length checks.
		// Below 33 window bits the window holds all that is left.
		if blLen == 0 {
			return fmt.Errorf("stream: last-n BL store ends at value %d of %d", pos, m)
		}
		if valid < 33 {
			win, valid = bl.topWindow(blLen)
		}
		var x uint32
		var entry, width uint64 // the FR entry and the width it shares with its BL twin
		r := 1                  // values the entry stands for
		if win>>63 == 1 {
			if valid < hitBits {
				return fmt.Errorf("stream: last-n BL store truncated at value %d", pos)
			}
			entry, width = win>>(64-hitBits), hitBits // index below the flag bit
			j := int(entry & idxMask)
			x = tb[j]
			if j == 0 { // at least this one hit: valid >= hitBits
				r = min(slot0Run(win, valid, hitBits), min(nextCk, m)-pos)
				width = uint64(r) * hitBits
				entry = win >> (64 - width)
			}
			for i := j; i > 0; i-- {
				v := tb[i-1]
				if v == x {
					return fmt.Errorf("stream: last-n BL hit %d at value %d is not the first match", j, pos)
				}
				tb[i] = v
			}
		} else {
			if valid < 33 {
				return fmt.Errorf("stream: last-n BL store truncated at value %d", pos)
			}
			x = uint32(win >> 31)
			entry, width = uint64(tb[last]), 33 // evicted value below a zero flag
			inTable := tb[last] == x
			for i := last; i > 0; i-- {
				v := tb[i-1]
				inTable = inTable || v == x
				tb[i] = v
			}
			if inTable {
				return fmt.Errorf("stream: last-n BL literal at value %d is in the table", pos)
			}
		}
		tb[0] = x
		blLen -= width
		win <<= width
		valid -= width
		lastVal += uint32(r) * (x & strideMask)
		pos += r
		fw.put(entry, width)
	}
	if blLen != 0 {
		return fmt.Errorf("stream: last-n BL store holds %d bits beyond the stream", blLen)
	}
	fw.flush()
	if m > 0 {
		end := lastNCk{pos: m, frLen: s.bl.n, lastVal: lastVal}
		if !allZero(tb) {
			end.tb = tb // the pass is done with the table: no copy
		}
		cks = append(cks, end)
	}
	s.seal(bitvec{words: fw.words, n: s.bl.n}, cks)
	return nil
}

func (s *lastNStream) bestCk(i int) (*lastNCk, int) {
	lo, hi := 0, len(s.cks)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.cks[mid].pos <= i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	rc := restoreCost(s.n/2 + 1)
	var best *lastNCk
	bestCost := int(^uint(0) >> 1)
	if lo > 0 {
		ck := &s.cks[lo-1]
		if c := i - ck.pos + rc; c < bestCost {
			best, bestCost = ck, c
		}
	}
	if lo < len(s.cks) {
		ck := &s.cks[lo]
		if c := ck.pos - i + rc; c < bestCost {
			best, bestCost = ck, c
		}
	}
	return best, bestCost
}

// --- cursor ---

type lastNCursor struct {
	s            *lastNStream
	pos          int
	frLen, blLen uint64
	tb           []uint32
	lastVal      uint32
}

func (c *lastNCursor) Len() int { return c.s.m }
func (c *lastNCursor) Pos() int { return c.pos }

func (c *lastNCursor) Next() uint32 {
	if c.pos >= c.s.m {
		panic("stream: Next past end")
	}
	// Consume the BL reference. Hit/miss of the reference equals hit/miss
	// of the FR entry at this position (both searched the same table
	// state), so frLen advances without reading the FR store.
	var x uint32
	if c.s.bl.top(c.blLen, 1) == 1 {
		c.blLen--
		i := int(c.s.bl.top(c.blLen, c.s.idxBits))
		c.blLen -= uint64(c.s.idxBits)
		x = c.tb[i]
		copy(c.tb[1:i+1], c.tb[:i])
		c.tb[0] = x
		c.frLen += uint64(c.s.idxBits) + 1
	} else {
		c.blLen--
		x = c.s.bl.top(c.blLen, 32)
		c.blLen -= 32
		copy(c.tb[1:], c.tb[:c.s.n-1])
		c.tb[0] = x
		c.frLen += 33
	}
	v := x
	if c.s.stride {
		v = c.lastVal + x
		c.lastVal = v
	}
	c.pos++
	return v
}

func (c *lastNCursor) Prev() uint32 {
	if c.pos == 0 {
		panic("stream: Prev past start")
	}
	// Pop the FR entry and undo its move-to-front mutation.
	x := c.tb[0]
	if c.s.fr.top(c.frLen, 1) == 1 {
		c.frLen--
		i := int(c.s.fr.top(c.frLen, c.s.idxBits))
		c.frLen -= uint64(c.s.idxBits)
		copy(c.tb[:i], c.tb[1:i+1])
		c.tb[i] = x
	} else {
		c.frLen--
		evicted := c.s.fr.top(c.frLen, 32)
		c.frLen -= 32
		copy(c.tb[:c.s.n-1], c.tb[1:])
		c.tb[c.s.n-1] = evicted
	}
	// Advance blLen by the size of the BL reference to x against the
	// restored table (what pushRef recorded on the way back).
	ref := uint64(33)
	for _, v := range c.tb {
		if v == x {
			ref = uint64(c.s.idxBits) + 1
			break
		}
	}
	c.blLen += ref
	c.pos--
	if c.s.stride {
		v := c.lastVal
		c.lastVal = v - x
		return v
	}
	return x
}

// kernelShape is what NextN and PrevN take from a stream whose table fits
// their local array: its last slot (masked to the array, so the compiler
// drops the bounds checks), a hit's width, the shift that brings a window's
// index down, and all ones for a stride stream.
func (s *lastNStream) kernelShape() (last int, hitW, idxShift uint64, strideMask uint32) {
	if s.stride {
		strideMask = ^uint32(0)
	}
	return (s.n - 1) & 7, uint64(s.idxBits) + 1, 63 - uint64(s.idxBits), strideMask
}

// NextN is Next over a batch, read a word at a time: BL comes through a
// 64-bit window refilled below 33 bits (one literal), the table is a local
// array shifted by loops, and a run of slot-0 hits decodes in one step. A run
// ends at the first other entry, at dst's end or at the window's valid bits.
// Next stays a separate single step: through a one-value NextN it took twice
// as long. TestCursorKernelsMatchSteps and FuzzCursor pin both kernels to
// the single steps, state included.
func (c *lastNCursor) NextN(dst []uint32) int {
	n := min(len(dst), c.s.m-c.pos)
	if n <= 0 {
		return 0
	}
	s := c.s
	var tb [8]uint32
	if s.n > len(tb) { // only a hand-written file has a wider table
		for i := range dst[:n] {
			dst[i] = c.Next()
		}
		return n
	}
	copy(tb[:], c.tb)
	last, hitW, idxShift, strideMask := s.kernelShape()
	bl, blLen, lastVal := s.bl, c.blLen, c.lastVal
	var win, valid uint64
	for i := 0; i < n; {
		if valid < 33 {
			win, valid = bl.topWindow(blLen)
		}
		x, w, r := uint32(win>>31), uint64(33), 1
		if win>>63 == 0 { // a literal enters at the front
			for k := last; k > 0; k-- {
				tb[k] = tb[k-1]
			}
		} else if j := int(win>>idxShift) & last; j > 0 {
			x, w = tb[j], hitW
			for k := j; k > 0; k-- {
				tb[k] = tb[k-1]
			}
		} else {
			x = tb[0]
			r = min(slot0Run(win, valid, hitW), n-i)
			w = uint64(r) * hitW
		}
		tb[0] = x
		for end := i + r; i < end; i++ {
			lastVal = lastVal&strideMask + x
			dst[i] = lastVal
		}
		win <<= w
		valid -= w
		blLen -= w
	}
	copy(c.tb, tb[:])
	c.frLen += c.blLen - blLen // each FR entry is as wide as its BL twin
	c.blLen, c.lastVal = blLen, lastVal&strideMask
	c.pos += n
	return n
}

// PrevN is NextN backward over FR (see NextN); dst is filled in traversal
// order, dst[i] holding the value at the original Pos()-1-i. Each FR entry
// popped gives BL back its twin, as wide: a slot-0 run is slot-0 hits in BL
// too.
func (c *lastNCursor) PrevN(dst []uint32) int {
	n := min(len(dst), c.pos)
	if n <= 0 {
		return 0
	}
	s := c.s
	var tb [8]uint32
	if s.n > len(tb) {
		for i := range dst[:n] {
			dst[i] = c.Prev()
		}
		return n
	}
	copy(tb[:], c.tb)
	last, hitW, idxShift, strideMask := s.kernelShape()
	fr, frLen, lastVal := s.fr, c.frLen, c.lastVal
	var win, valid uint64
	for i := 0; i < n; {
		if valid < 33 {
			win, valid = fr.topWindow(frLen)
		}
		x, w, r := tb[0], hitW, 1
		if win>>63 == 0 { // the evicted value returns to the back
			for k := 0; k < last; k++ {
				tb[k] = tb[k+1]
			}
			tb[last], w = uint32(win>>31), 33
		} else if j := int(win>>idxShift) & last; j > 0 {
			for k := 0; k < j; k++ {
				tb[k] = tb[k+1]
			}
			tb[j] = x
		} else {
			r = min(slot0Run(win, valid, hitW), n-i)
			w = uint64(r) * hitW
		}
		for end := i + r; i < end; i++ {
			dst[i] = lastVal&strideMask | x&^strideMask
			lastVal -= x & strideMask
		}
		win <<= w
		valid -= w
		frLen -= w
	}
	copy(c.tb, tb[:])
	c.blLen += c.frLen - frLen
	c.frLen, c.lastVal = frLen, lastVal
	c.pos -= n
	return n
}

func (c *lastNCursor) restoreNear(i, walk int) bool {
	ck, cost := c.s.bestCk(i)
	if ck == nil || cost >= walk {
		return false
	}
	c.pos, c.frLen, c.blLen, c.lastVal = ck.pos, ck.frLen, ck.blLen, ck.lastVal
	copyOrZero(c.tb, ck.tb)
	return true
}

func (c *lastNCursor) spacing() int { return ckSpacing(c.s.m, c.s.stateBits()) }

func (c *lastNCursor) Seek(i int) {
	startSeek(c, i, c.s.stats)
	var buf [seekBatch]uint32
	for c.pos < i {
		c.NextN(buf[:min(i-c.pos, seekBatch)])
	}
	for c.pos > i {
		c.PrevN(buf[:min(c.pos-i, seekBatch)])
	}
}

// --- verbatim ---

// verbatim stores the stream uncompressed; the selection fallback for
// streams no predictor helps with. It is trivially immutable.
type verbatim struct {
	vals  []uint32
	stats *SeekCounters
}

func newVerbatim(vals []uint32) *verbatim {
	cp := make([]uint32, len(vals))
	copy(cp, vals)
	return &verbatim{vals: cp}
}

func (v *verbatim) Len() int               { return len(v.vals) }
func (v *verbatim) Name() string           { return "verbatim" }
func (v *verbatim) SizeBits() uint64       { return uint64(len(v.vals))*32 + HeaderBits }
func (v *verbatim) CheckpointBits() uint64 { return 0 }

func (v *verbatim) NewCursor() Cursor { return &verbatimCursor{v: v} }

type verbatimCursor struct {
	v   *verbatim
	pos int
}

func (c *verbatimCursor) Len() int { return len(c.v.vals) }
func (c *verbatimCursor) Pos() int { return c.pos }

func (c *verbatimCursor) Next() uint32 {
	if c.pos >= len(c.v.vals) {
		panic("stream: Next past end")
	}
	x := c.v.vals[c.pos]
	c.pos++
	return x
}

func (c *verbatimCursor) Prev() uint32 {
	if c.pos == 0 {
		panic("stream: Prev past start")
	}
	c.pos--
	return c.v.vals[c.pos]
}

func (c *verbatimCursor) NextN(dst []uint32) int {
	n := copy(dst, c.v.vals[c.pos:])
	c.pos += n
	return n
}

func (c *verbatimCursor) PrevN(dst []uint32) int {
	n := c.pos
	if n > len(dst) {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		dst[i] = c.v.vals[c.pos-1-i]
	}
	c.pos -= n
	return n
}

func (c *verbatimCursor) peek(i int) uint32 { return c.v.vals[i] }

func (c *verbatimCursor) Seek(i int) {
	if i < 0 || i > len(c.v.vals) {
		panic(fmt.Sprintf("stream: seek to %d outside [0,%d]", i, len(c.v.vals)))
	}
	c.pos = i
	noteSeek(c.v.stats, false, 0)
}
