// Package query implements the paper's §2/§5.2 queries over a WET:
// control-flow trace extraction (forward and backward, from any point),
// per-instruction load value traces, per-instruction load/store address
// traces, and backward/forward WET slices. Every query runs against either
// tier-1 (customized-compressed) or tier-2 (fully compressed) labels.
package query

import (
	"fmt"
	"slices"

	"wet/internal/core"
)

// Walker reconstructs the control flow trace from node timestamps: the node
// executed at time t+1 is the CF successor whose timestamp sequence
// contains t+1 (paper §2, "Control flow path"). A walker keeps a window of
// decoded timestamps for each node it lands on or probes, so a step compares
// each CF neighbour's buffered timestamps with t±1 instead of stepping a
// cursor per candidate.
type Walker struct {
	w    *core.WET
	tier core.Tier
	wins []*tsWin          // by node, placed on first touch (nil in InstanceOfTS)
	buf  [walkChunk]uint32 // scratch window for the nodes a search merely reads

	// Node/Ord identify the current node execution; Node < 0 before the
	// first step.
	Node int
	Ord  int
	ts   uint32
}

// NewWalker returns a walker positioned before the start of the trace.
// Every cursor a walker steps is its own (spawned from the WET's immutable
// streams), so any number of walkers — and any other queries — may run
// over one frozen WET concurrently; a single walker is confined to one
// goroutine.
func NewWalker(w *core.WET, tier core.Tier) *Walker {
	return &Walker{w: w, tier: tier, wins: make([]*tsWin, len(w.Nodes)), Node: -1}
}

// TS returns the timestamp of the current node execution (0 before start).
func (wk *Walker) TS() uint32 { return wk.ts }

// walkChunk is the width of one decoded run: a walker's timestamp window, a
// sample window, a value run. One batched decode replaces walkChunk
// interface-dispatched single steps, while what a run decodes past the
// element a reader wanted stays within one seek of the checkpoint spacing.
const walkChunk = 64

// tsWin is a window over one node's timestamps, inside one segment of them:
// on a segmented tier-2 WET the segment one epoch sealed, read through that
// segment's own cursor, and otherwise the whole sequence. v holds the
// segment's elements base … base+len(v)-1 (indices local to the segment),
// re-based to global time.
type tsWin struct {
	n     *core.Node
	cur   core.Seq // the segment's cursor; nil until the first lookup
	add   uint32   // the segment's epoch base
	seg   int      // the segment's index in n.TSSegs
	hi    int      // the segment's length
	v     []uint32
	base  int
	i     int // v[i] is where the last lookup ended
	lo    int // global index of segment loSeg's first element (see ord)
	loSeg int
}

// enter points the window at the segment that can hold timestamp t. On a
// segmented tier-2 WET that is the one t's epoch sealed, found by epoch (the
// timestamp twin of WET.EdgeSegAt) without decoding anything; a node with
// none there did not execute at t and enter reports false.
func (h *tsWin) enter(wk *Walker, t uint32) bool {
	w, n := wk.w, h.n
	if wk.tier != core.Tier2 || n.TSSegs == nil || w.TSStride > 0 {
		if h.cur == nil {
			h.cur = w.TSSeq(n, wk.tier)
			h.hi = h.cur.Len()
		}
		return true
	}
	if h.cur != nil && t-1-h.add < w.EpochTS {
		return true // t lies in the epoch of the segment already entered
	}
	k, ok := slices.BinarySearchFunc(n.TSSegs, int((t-1)/w.EpochTS),
		func(sg *core.LabelSeg, epoch int) int { return sg.Epoch - epoch })
	if !ok {
		return false
	}
	sg := n.TSSegs[k]
	h.cur, h.add, h.seg, h.hi = sg.S.NewCursor(), uint32(sg.Epoch)*w.EpochTS, k, sg.N
	h.v, h.base = h.v[:0], 0
	return true
}

// find returns the ordinal of the node's execution at t, or -1. It reads
// only t's segment: a fresh window from the end a walk in direction back
// enters it by, then on from wherever the last lookup left it.
func (h *tsWin) find(wk *Walker, t uint32, back bool) int {
	if !h.enter(wk, t) {
		return -1
	}
	for {
		switch v := h.v; {
		case len(v) == 0:
			if back {
				h.base = h.hi
			}
			if h.slide(back) == 0 {
				return -1
			}
		case t < v[0]:
			if h.base == 0 {
				return -1
			}
			h.slide(true)
		case t > v[len(v)-1]:
			if h.base+len(v) == h.hi {
				return -1
			}
			h.slide(false)
		default:
			i := min(h.i, len(v)-1)
			for v[i] < t {
				i++
			}
			for v[i] > t {
				i--
			}
			if h.i = i; v[i] != t {
				return -1
			}
			return h.ord(i)
		}
	}
}

// slide moves the window one run along its segment, forward or back, and
// returns the count of elements decoded. The window keeps the element at its
// edge, so a target between two runs lands inside it and reads as absent.
// A run never crosses the segment's end: a window does not force the next
// epoch's segment before the walk gets there.
func (h *tsWin) slide(back bool) int {
	v, keep := h.v[:cap(h.v)], min(len(h.v), 1)
	var n int
	if back {
		end := h.base
		n = min(len(v)-keep, end)
		if keep == 1 {
			v[n] = v[0] // the kept edge goes last
		}
		h.seek(end)
		core.SeqPrevN(h.cur, v[:n])
		slices.Reverse(v[:n])
		h.v, h.base, h.i = v[:n+keep], end-n, n+keep-1
		v = v[:n]
	} else {
		from := h.base + len(h.v)
		v[0] = v[max(len(h.v)-1, 0)] // the kept edge goes first
		n = min(len(v)-keep, h.hi-from)
		h.seek(from)
		core.SeqNextN(h.cur, v[keep:keep+n])
		h.v, h.base, h.i = v[:keep+n], from-keep, 0
		v = v[keep : keep+n]
	}
	if h.add != 0 {
		for i := range v {
			v[i] += h.add
		}
	}
	return n
}

func (h *tsWin) seek(i int) {
	if h.cur.Pos() != i {
		seqSeek(h.cur, i)
	}
}

// ord returns the node ordinal of window element i. The global start of the
// window's segment is kept as a running sum that follows the segment the
// window is in, paid at a landing so a search that finds nothing pays none.
func (h *tsWin) ord(i int) int {
	for ; h.loSeg < h.seg; h.loSeg++ {
		h.lo += h.n.TSSegs[h.loSeg].N
	}
	for ; h.loSeg > h.seg; h.loSeg-- {
		h.lo -= h.n.TSSegs[h.loSeg-1].N
	}
	return h.lo + h.base + i
}

// seqSeek repositions s so the next Next() reads element i, via the Seeker
// fast path when the sequence has one.
func seqSeek(s core.Seq, i int) {
	if sk, ok := s.(core.Seeker); ok {
		sk.Seek(i)
		return
	}
	for s.Pos() > i {
		s.Prev()
	}
	for s.Pos() < i {
		s.Next()
	}
}

// Forward advances to the node executed at ts+1. It returns false at the
// end of the trace.
func (wk *Walker) Forward() bool { return wk.step(false) }

// Backward retreats to the node executed at ts-1. It returns false at the
// start of the trace.
func (wk *Walker) Backward() bool { return wk.step(true) }

// step moves one node execution in the given direction: the node holding
// the adjacent timestamp is a CF neighbour of the current one, found by
// comparing each neighbour's window with it.
func (wk *Walker) step(back bool) bool {
	target := wk.ts + 1
	if back {
		target = wk.ts - 1
	}
	if target < 1 || target > wk.w.Time {
		return false
	}
	var cands []int
	switch {
	case wk.Node >= 0 && back:
		cands = wk.w.Nodes[wk.Node].CFPrev
	case wk.Node >= 0:
		cands = wk.w.Nodes[wk.Node].CFNext
	case back:
		cands = []int{wk.w.LastNode}
	default:
		cands = []int{wk.w.FirstNode}
	}
	for _, c := range cands {
		if wk.wins[c] == nil {
			wk.wins[c] = &tsWin{n: wk.w.Nodes[c], v: make([]uint32, 0, walkChunk)}
		}
		if ord := wk.wins[c].find(wk, target, back); ord >= 0 {
			wk.Node, wk.Ord, wk.ts = c, ord, target
			return true
		}
	}
	// Fall back to a global search (starting mid-trace at an arbitrary point).
	return wk.search(target, back)
}

// search makes the node that executed at t the current one.
func (wk *Walker) search(t uint32, back bool) bool {
	for c := range wk.w.Nodes {
		if ord := wk.lookup(c, t, back); ord >= 0 {
			wk.Node, wk.Ord, wk.ts = c, ord, t
			return true
		}
	}
	return false
}

// lookup returns the ordinal of node c's execution at t, or -1. A node the
// walker holds no window for is read through the one scratch buffer, and is
// given a window only if it executed at t (and the walker keeps windows).
func (wk *Walker) lookup(c int, t uint32, back bool) int {
	if wk.wins != nil && wk.wins[c] != nil {
		return wk.wins[c].find(wk, t, back)
	}
	h := tsWin{n: wk.w.Nodes[c], v: wk.buf[:0]}
	ord := h.find(wk, t, back)
	if ord >= 0 && wk.wins != nil {
		kept := h
		kept.v = append(make([]uint32, 0, walkChunk), h.v...)
		wk.wins[c] = &kept
	}
	return ord
}

// SeekEnd positions the walker after the last execution, ready for a
// backward walk.
func (wk *Walker) SeekEnd() {
	wk.Node = -1
	wk.Ord = 0
	wk.ts = wk.w.Time + 1
}

// SeekStart positions the walker before the first execution.
func (wk *Walker) SeekStart() {
	wk.Node = -1
	wk.Ord = 0
	wk.ts = 0
}

// StartAt positions the walker on the node execution holding timestamp t.
// Deferred-decode failures surface as a *stream.DecodeError, not a panic.
func (wk *Walker) StartAt(t uint32) (err error) {
	defer recoverTyped(&err)
	if t < 1 || t > wk.w.Time {
		return fmt.Errorf("query: timestamp %d outside [1,%d]", t, wk.w.Time)
	}
	if !wk.search(t, false) {
		return fmt.Errorf("query: timestamp %d not found", t)
	}
	return nil
}

// ExtractCF walks the whole control-flow trace in the given direction,
// invoking emit for every executed statement (in per-node static order; the
// node-level order is exact execution order). It returns the number of
// statements visited — times 4 bytes, the paper's CF trace size. On a
// lazily loaded WET a deferred-decode failure panics with a
// *stream.DecodeError (this signature has no error slot); use ExtractCFCtx
// to receive it as a typed error instead.
func ExtractCF(w *core.WET, tier core.Tier, forward bool, emit func(stmtID int)) uint64 {
	n, _ := walkCF(w, tier, forward, emit, nil)
	return n
}

// walkCF is the whole-trace walk behind ExtractCF and ExtractCFCtx. stop,
// when non-nil, is polled after every node execution; a true answer ends
// the walk with the statements visited so far.
func walkCF(w *core.WET, tier core.Tier, forward bool, emit func(stmtID int), stop func() bool) (n uint64, stopped bool) {
	wk := NewWalker(w, tier)
	if !forward {
		wk.SeekEnd()
	}
	for wk.step(!forward) {
		stmts := w.Nodes[wk.Node].Stmts
		n += uint64(len(stmts))
		if emit != nil && forward {
			for _, s := range stmts {
				emit(s.ID)
			}
		} else if emit != nil {
			for i := len(stmts) - 1; i >= 0; i-- {
				emit(stmts[i].ID)
			}
		}
		if stop != nil && stop() {
			return n, true
		}
	}
	return n, false
}
