package stream

import (
	"fmt"
	"slices"
)

// The bidirectional FCM / differential-FCM method (paper §4, Figures 5–6)
// is split into three pieces:
//
//   - fcmEnc: the mutable encoder. It owns live bitstacks and predictor
//     tables; construction runs it forward over the raw values and finish
//     walks it back to position 0.
//   - fcmStream: the immutable artifact. It holds both entry stores in
//     full — FR as it stands at position m, BL as it stands at position 0 —
//     plus the canonical boundary states and interior checkpoints. It has
//     no cursor state and is safe to share.
//   - fcmCursor: a detached cursor. It reconstructs predictor-table
//     context privately; stepping reads the shared stores by bit offset
//     and never writes them.
//
// Two predictor tables are kept: FRTB predicts a value from its right
// context (used by the forward-compressed part) and BLTB from its left
// context (backward-compressed part). Miss entries store the table slot's
// *evicted* content while the slot keeps the actual value, so each step's
// table mutation is exactly undone by the reverse step — which also means
// the cursor state at position p is identical no matter how p was reached.
// At position 0 every table the forward pass touched is back to zero: the
// canonical start state is all-zeros plus the stored BL table.
//
// In stride (differential) mode the tables store strides rather than
// values: the prediction for an incoming value v after window w is
// w[n-1] + BLTB[hash(strides(w))], per Goeman et al.'s dFCM.

// tableBits picks a predictor table size proportional to the stream length
// (clamped) so that table storage — which is counted in SizeBits — does not
// dominate short streams.
func tableBits(m int) uint {
	b := uint(4)
	for (1<<(b+4)) < m && b < 16 {
		b++
	}
	return b
}

// The context hash is 32-bit FNV-1a over whole values, folded to the table
// size. fnvMix and fnvSlot are its two steps; the selection kernel
// (Scratch.sizeFCMAll) rolls them across orders instead of calling fcmHash.
const fnvOffset uint32 = 2166136261

func fnvMix(h, x uint32) uint32 { return (h ^ x) * 16777619 }

func fnvSlot(h uint32, tbBits uint) uint32 { return (h ^ h>>16) & (1<<tbBits - 1) }

// fcmHash maps a context window (values, or strides of it) to a table
// slot. Shared by the encoder, the cursor, and the dry-run sizer so they
// cannot diverge.
func fcmHash(win []uint32, stride bool, tbBits uint) uint32 {
	h := fnvOffset
	if stride {
		for i := 0; i+1 < len(win); i++ {
			h = fnvMix(h, win[i+1]-win[i])
		}
	} else {
		for _, v := range win {
			h = fnvMix(h, v)
		}
	}
	return fnvSlot(h, tbBits)
}

// fcmPredictIncoming reconstructs a value from the left-context table
// content, given the current window.
func fcmPredictIncoming(win []uint32, stride bool, tbl uint32) uint32 {
	if stride {
		return win[len(win)-1] + tbl
	}
	return tbl
}

// fcmEncodeIncoming converts an actual incoming value to table content.
func fcmEncodeIncoming(win []uint32, stride bool, v uint32) uint32 {
	if stride {
		return v - win[len(win)-1]
	}
	return v
}

// fcmPredictHead reconstructs the value to the window's left from the
// right-context table content (after the window has shifted right).
func fcmPredictHead(win []uint32, stride bool, tbl uint32) uint32 {
	if stride {
		return win[0] - tbl // table stores padded[c] - padded[c-1]
	}
	return tbl
}

// fcmEncodeHead converts an actual head value to right-context table
// content.
func fcmEncodeHead(win []uint32, stride bool, h uint32) uint32 {
	if stride {
		return win[0] - h
	}
	return h
}

// --- encoder ---

type fcmEnc struct {
	m      int
	order  int // context length in values
	stride bool
	tbBits uint
	frtb   []uint32
	bltb   []uint32
	fr, bl bitstack
	win    []uint32 // win[0] is the oldest (leftmost) context value
	pos    int
}

func newFCMEnc(vals []uint32, order int, stride bool) *fcmEnc {
	if order < 1 {
		panic("stream: fcm order must be >= 1")
	}
	win := order
	if stride {
		win = order + 1 // need order strides
	}
	e := &fcmEnc{
		m:      len(vals),
		order:  order,
		stride: stride,
		tbBits: tableBits(len(vals)),
		win:    make([]uint32, win),
	}
	e.frtb = make([]uint32, 1<<e.tbBits)
	e.bltb = make([]uint32, 1<<e.tbBits)
	// Initial compression: a forward pass consuming raw values (the stream
	// is conceptually padded with a window of zeros on the left).
	for _, v := range vals {
		e.push(v)
	}
	return e
}

func (e *fcmEnc) hash() uint32 { return fcmHash(e.win, e.stride, e.tbBits) }

// push advances the encoder by one raw value during construction; the BL
// side is untouched.
func (e *fcmEnc) push(v uint32) {
	// Shift the window: the head h leaves to the FR side.
	h := e.win[0]
	copy(e.win, e.win[1:])
	e.win[len(e.win)-1] = v
	// Compress h with its right context (the new window).
	idx := e.hash()
	if fcmPredictHead(e.win, e.stride, e.frtb[idx]) == h {
		e.fr.pushBit(true)
	} else {
		e.fr.pushBits(e.frtb[idx], 32) // evicted content
		e.fr.pushBit(false)
		e.frtb[idx] = fcmEncodeHead(e.win, e.stride, h)
	}
	e.pos++
}

func (e *fcmEnc) prev() uint32 {
	if e.pos == 0 {
		panic("stream: Prev past start")
	}
	// Uncompress the FR entry for the value left of the window, using the
	// right context (current window).
	idx := e.hash()
	miss := !e.fr.popBit()
	var payload uint32
	if miss {
		payload = e.fr.popBits(32)
	}
	h := fcmPredictHead(e.win, e.stride, e.frtb[idx])
	if miss {
		e.frtb[idx] = payload
	}
	// Shift the window right: the tail t leaves to the BL side.
	t := e.win[len(e.win)-1]
	copy(e.win[1:], e.win)
	e.win[0] = h
	// Compress t with its left context (the new window).
	idx = e.hash()
	if fcmPredictIncoming(e.win, e.stride, e.bltb[idx]) == t {
		e.bl.pushBit(true)
	} else {
		e.bl.pushBits(e.bltb[idx], 32)
		e.bl.pushBit(false)
		e.bltb[idx] = fcmEncodeIncoming(e.win, e.stride, t)
	}
	e.pos--
	return t
}

// finish freezes the encoder (which must be at position m with BL empty)
// into an immutable stream: the FR store is snapshotted, then one backward
// pass rebuilds the BL store while capturing checkpoints at ckSpacing.
func (e *fcmEnc) finish() *fcmStream {
	s := &fcmStream{
		m: e.m, order: e.order, stride: e.stride, tbBits: e.tbBits,
	}
	fr := e.fr.freeze() // popBits clears bits, so copy before walking back
	sp := ckSpacing(e.m, s.stateBits())
	var cks []fcmCk // built in strictly descending pos, reversed below
	if e.m > 0 {
		cks = append(cks, e.snapshot()) // construction-end state at pos m
	}
	for e.pos > 0 {
		e.prev()
		if sp > 0 && e.pos > 0 && e.pos%sp == 0 {
			cks = append(cks, e.snapshot())
		}
	}
	s.bl = e.bl.freeze()
	s.bltb0 = append([]uint32(nil), e.bltb...)
	// The canonical start state: all predictor state zero except the stored
	// BL table (shared, so it costs nothing extra).
	cks = append(cks, fcmCk{pos: 0, frLen: 0, blLen: s.bl.n, bltb: s.bltb0})
	slices.Reverse(cks)
	s.seal(fr, cks)
	return s
}

// load freezes an encoder read from a file — at position 0, holding the BL
// store and BL table — in one forward pass: each value is decoded from BL as
// Next does and pushed as construction would, capturing the checkpoints
// finish captures. The pass also checks that the BL store is the one prev
// writes: a miss whose payload — the table content prev found — predicts
// the value would have been a hit. Prev sizes the BL entry it steps over by
// that rule, so a store that broke it would yield cursors whose blLen
// disagrees with the store. Selection rarely picks an FCM method (none of the
// benchmark programs' streams), so unlike lastNStream.load this pass reuses
// the encoder's own step instead of carrying a separate decode kernel.
func (e *fcmEnc) load() (*fcmStream, error) {
	s := &fcmStream{
		m: e.m, order: e.order, stride: e.stride, tbBits: e.tbBits,
		bl: e.bl.freeze(), bltb0: append([]uint32(nil), e.bltb...),
	}
	e.fr.words = slices.Grow(e.fr.words, len(s.bl.words))
	sp := ckSpacing(e.m, s.stateBits())
	cks := []fcmCk{{pos: 0, frLen: 0, blLen: s.bl.n, bltb: s.bltb0}}
	for e.pos < e.m {
		if sp > 0 && e.pos > 0 && e.pos%sp == 0 {
			cks = append(cks, e.snapshot())
		}
		idx := e.hash()
		v := fcmPredictIncoming(e.win, e.stride, e.bltb[idx])
		if !e.bl.popBit() {
			payload := e.bl.popBits(32)
			if payload == e.bltb[idx] {
				return nil, fmt.Errorf("stream: fcm BL miss at value %d carries a payload that predicts it", e.pos)
			}
			e.bltb[idx] = payload // restore the evicted content
		}
		e.push(v)
	}
	if !e.bl.empty() {
		return nil, fmt.Errorf("stream: fcm BL store holds %d bits beyond the stream", e.bl.bits())
	}
	if e.m > 0 {
		cks = append(cks, e.snapshot())
	}
	s.seal(e.fr.freeze(), cks)
	return s, nil
}

// snapshot captures the encoder's current state as a checkpoint. All-zero
// tables are stored as nil (restored by zero-filling).
func (e *fcmEnc) snapshot() fcmCk {
	return fcmCk{
		pos: e.pos, frLen: e.fr.bits(), blLen: e.bl.bits(),
		frtb: snapTable(e.frtb), bltb: snapTable(e.bltb), win: snapTable(e.win),
	}
}

// snapTable copies t, or returns nil when t is all zeros.
func snapTable(t []uint32) []uint32 {
	if allZero(t) {
		return nil
	}
	return append([]uint32(nil), t...)
}

func allZero(t []uint32) bool {
	for _, v := range t {
		if v != 0 {
			return false
		}
	}
	return true
}

// copyOrZero restores a snapshot into dst (nil snapshot = all zeros).
func copyOrZero(dst, src []uint32) {
	if src == nil {
		clear(dst)
	} else {
		copy(dst, src)
	}
}

// --- immutable stream ---

// fcmCk is one seek checkpoint: the complete cursor state at pos.
type fcmCk struct {
	pos          int
	frLen, blLen uint64
	frtb, bltb   []uint32 // nil = all zeros
	win          []uint32 // nil = all zeros
}

type fcmStream struct {
	m      int
	order  int
	stride bool
	tbBits uint
	fr     bitvec   // full FR store (state at pos m)
	bl     bitvec   // full BL store (state at pos 0)
	bltb0  []uint32 // BL predictor table at pos 0
	cks    []fcmCk  // ascending by pos; [0] is the start state, last is pos m
	size   uint64
	ckBits uint64
	stats  *SeekCounters // per-trace seek accounting; nil = global only
}

// stateBits is what one checkpoint's cursor state costs, for ckSpacing.
func (s *fcmStream) stateBits() uint64 {
	return uint64(2<<s.tbBits+s.winLen())*32 + 3*64
}

// seal installs what a full pass over the stream produced: the FR store as
// it stands at position m, whose length fixes SizeBits (BL is empty there),
// and the checkpoints (ascending by pos; [0] is the free start state) with
// their storage charge.
func (s *fcmStream) seal(fr bitvec, cks []fcmCk) {
	s.fr, s.cks = fr, cks
	s.size = fr.n + uint64(2<<s.tbBits+s.winLen())*32 + HeaderBits
	for i := 1; i < len(cks); i++ {
		s.ckBits += 3 * 64
		s.ckBits += uint64(len(cks[i].frtb)+len(cks[i].bltb)+len(cks[i].win)) * 32
	}
}

func (s *fcmStream) Len() int               { return s.m }
func (s *fcmStream) SizeBits() uint64       { return s.size }
func (s *fcmStream) CheckpointBits() uint64 { return s.ckBits }

func (s *fcmStream) Name() string {
	if s.stride {
		return methodName(KindDFCM, s.order)
	}
	return methodName(KindFCM, s.order)
}

func (s *fcmStream) winLen() int {
	if s.stride {
		return s.order + 1
	}
	return s.order
}

// stateWords is the 64-bit word count a checkpoint restore copies, for the
// seek cost model.
func (s *fcmStream) stateWords() int { return (2*(1<<s.tbBits) + s.winLen()) / 2 }

func (s *fcmStream) NewCursor() Cursor {
	c := &fcmCursor{
		s:     s,
		blLen: s.bl.n,
		frtb:  make([]uint32, 1<<s.tbBits),
		bltb:  make([]uint32, 1<<s.tbBits),
		win:   make([]uint32, s.winLen()),
	}
	copy(c.bltb, s.bltb0)
	return c
}

// bestCk returns the checkpoint whose restore-plus-walk cost to reach i is
// lowest, with that cost in step-equivalents.
func (s *fcmStream) bestCk(i int) (*fcmCk, int) {
	lo, hi := 0, len(s.cks)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.cks[mid].pos <= i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	rc := restoreCost(s.stateWords())
	var best *fcmCk
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

type fcmCursor struct {
	s            *fcmStream
	pos          int
	frLen, blLen uint64
	frtb, bltb   []uint32
	win          []uint32
}

func (c *fcmCursor) Len() int { return c.s.m }
func (c *fcmCursor) Pos() int { return c.pos }

func (c *fcmCursor) Clone() Cursor {
	cp := *c
	cp.frtb = append([]uint32(nil), c.frtb...)
	cp.bltb = append([]uint32(nil), c.bltb...)
	cp.win = append([]uint32(nil), c.win...)
	return &cp
}

func (c *fcmCursor) Next() uint32 {
	if c.pos >= c.s.m {
		panic("stream: Next past end")
	}
	// Consume the BL entry for the incoming value using the left context.
	idx := fcmHash(c.win, c.s.stride, c.s.tbBits)
	hit := c.s.bl.top(c.blLen, 1) == 1
	c.blLen--
	var payload uint32
	if !hit {
		payload = c.s.bl.top(c.blLen, 32)
		c.blLen -= 32
	}
	v := fcmPredictIncoming(c.win, c.s.stride, c.bltb[idx])
	if !hit {
		c.bltb[idx] = payload // restore the evicted content
	}
	// Shift the window: the head h leaves to the FR side. The FR entry for
	// h is already in the store; recompute hit/miss to advance frLen and
	// apply the same table mutation the encoder did.
	h := c.win[0]
	copy(c.win, c.win[1:])
	c.win[len(c.win)-1] = v
	idx = fcmHash(c.win, c.s.stride, c.s.tbBits)
	if fcmPredictHead(c.win, c.s.stride, c.frtb[idx]) == h {
		c.frLen++
	} else {
		c.frLen += 33
		c.frtb[idx] = fcmEncodeHead(c.win, c.s.stride, h)
	}
	c.pos++
	return v
}

func (c *fcmCursor) Prev() uint32 {
	if c.pos == 0 {
		panic("stream: Prev past start")
	}
	// Uncompress the FR entry for the value left of the window.
	idx := fcmHash(c.win, c.s.stride, c.s.tbBits)
	hit := c.s.fr.top(c.frLen, 1) == 1
	c.frLen--
	var payload uint32
	if !hit {
		payload = c.s.fr.top(c.frLen, 32)
		c.frLen -= 32
	}
	h := fcmPredictHead(c.win, c.s.stride, c.frtb[idx])
	if !hit {
		c.frtb[idx] = payload
	}
	// Shift the window right: the tail t leaves to the BL side.
	t := c.win[len(c.win)-1]
	copy(c.win[1:], c.win)
	c.win[0] = h
	idx = fcmHash(c.win, c.s.stride, c.s.tbBits)
	if fcmPredictIncoming(c.win, c.s.stride, c.bltb[idx]) == t {
		c.blLen++
	} else {
		c.blLen += 33
		c.bltb[idx] = fcmEncodeIncoming(c.win, c.s.stride, t)
	}
	c.pos--
	return t
}

// NextN is Next unrolled over a batch: the stream reference, predictor
// tables, window, and store offsets are hoisted into locals for the whole
// run, so a long sequential decode pays the per-step bookkeeping once per
// batch instead of once per value. The step body must mirror Next exactly
// (pinned, state included, by FuzzCursor).
func (c *fcmCursor) NextN(dst []uint32) int {
	n := c.s.m - c.pos
	if n > len(dst) {
		n = len(dst)
	}
	if n <= 0 {
		return 0
	}
	s := c.s
	stride, tbBits := s.stride, s.tbBits
	win, frtb, bltb := c.win, c.frtb, c.bltb
	frLen, blLen := c.frLen, c.blLen
	for i := 0; i < n; i++ {
		idx := fcmHash(win, stride, tbBits)
		hit := s.bl.top(blLen, 1) == 1
		blLen--
		var payload uint32
		if !hit {
			payload = s.bl.top(blLen, 32)
			blLen -= 32
		}
		v := fcmPredictIncoming(win, stride, bltb[idx])
		if !hit {
			bltb[idx] = payload
		}
		h := win[0]
		copy(win, win[1:])
		win[len(win)-1] = v
		idx = fcmHash(win, stride, tbBits)
		if fcmPredictHead(win, stride, frtb[idx]) == h {
			frLen++
		} else {
			frLen += 33
			frtb[idx] = fcmEncodeHead(win, stride, h)
		}
		dst[i] = v
	}
	c.frLen, c.blLen = frLen, blLen
	c.pos += n
	return n
}

// PrevN is Prev unrolled over a batch (see NextN); dst is filled in
// traversal order, dst[i] holding the value at the original Pos()-1-i.
func (c *fcmCursor) PrevN(dst []uint32) int {
	n := c.pos
	if n > len(dst) {
		n = len(dst)
	}
	if n <= 0 {
		return 0
	}
	s := c.s
	stride, tbBits := s.stride, s.tbBits
	win, frtb, bltb := c.win, c.frtb, c.bltb
	frLen, blLen := c.frLen, c.blLen
	for i := 0; i < n; i++ {
		idx := fcmHash(win, stride, tbBits)
		hit := s.fr.top(frLen, 1) == 1
		frLen--
		var payload uint32
		if !hit {
			payload = s.fr.top(frLen, 32)
			frLen -= 32
		}
		h := fcmPredictHead(win, stride, frtb[idx])
		if !hit {
			frtb[idx] = payload
		}
		t := win[len(win)-1]
		copy(win[1:], win)
		win[0] = h
		idx = fcmHash(win, stride, tbBits)
		if fcmPredictIncoming(win, stride, bltb[idx]) == t {
			blLen++
		} else {
			blLen += 33
			bltb[idx] = fcmEncodeIncoming(win, stride, t)
		}
		dst[i] = t
	}
	c.frLen, c.blLen = frLen, blLen
	c.pos -= n
	return n
}

func (c *fcmCursor) restoreNear(i, walk int) bool {
	ck, cost := c.s.bestCk(i)
	if ck == nil || cost >= walk {
		return false
	}
	c.pos, c.frLen, c.blLen = ck.pos, ck.frLen, ck.blLen
	copyOrZero(c.frtb, ck.frtb)
	copyOrZero(c.bltb, ck.bltb)
	copyOrZero(c.win, ck.win)
	return true
}

// Seek walks by single steps after startSeek: NextN/PrevN, with the tables
// and window hoisted into locals, spill on every step and walked ~15%
// slower on BenchmarkSeekCheckpointed.
func (c *fcmCursor) Seek(i int) {
	startSeek(c, i, c.s.stats)
	for c.pos < i {
		c.Next()
	}
	for c.pos > i {
		c.Prev()
	}
}
