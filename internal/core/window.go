package core

import (
	"slices"
	"sort"
)

// WalkChunk is the width of one decoded run: one batched decode replaces
// WalkChunk single steps, and what it decodes past the element a reader
// wanted stays within one seek of the checkpoint spacing.
const WalkChunk = 64

// Window is a run of one label sequence decoded into a buffer, read in either
// direction from any point (§4). It owns the direction each run is filled in;
// the part boundary (a window read by epoch holds one segment, and no run
// crosses its end or forces the next epoch's segment); the edge element a
// continuing run keeps, so a value between two runs reads as absent instead
// of sliding back and forth forever; the epoch lookup, which keys node
// timestamps and edge labels alike to the one segment a timestamp's epoch
// sealed, without decoding; and a segment's global start (span). A Window is
// confined to one goroutine, like its cursor.
type Window struct {
	seq     Seq          // the whole sequence, or the entered segment's cursor
	ra      RandomAccess // seq's O(1) reads at tier 1
	span                 // read by epoch: the segments, and the bounds of the one entered
	v       []uint32     // the run: the part's elements base … base+len(v)-1
	base, i int          // v[i] is where the last Find ended
	add     uint32       // added to every value read from the part
	last    uint32       // the previous Find, on ords
	byEpoch bool
	ords    bool // elements are ordinals, each at least its index (edge destinations)
}

// NewWindow returns a window over the whole of s.
func NewWindow(s Seq) Window {
	ra, _ := s.(RandomAccess)
	return Window{seq: s, ra: ra, span: span{segBounds: segBounds{n: s.Len()}}}
}

// TSWindow returns a window over n's timestamps, read by epoch on a
// segmented tier-2 WET and otherwise over TSSeq.
func (w *WET) TSWindow(n *Node, tier Tier) Window {
	if tier != Tier2 || n.TSSegs == nil {
		return NewWindow(w.TSSeq(n, tier))
	}
	return Window{span: span{parts: parts{wet: w, segs: &n.TSSegs, stride: w.EpochTS}}, byEpoch: true}
}

// Reuse makes win the window next, an unread one, keeping win's run buffer
// for next's runs. Reuse(Window{}) drops everything else win holds: its
// cursor, its sequence and the WET it reads.
func (win *Window) Reuse(next Window) {
	v := win.v[:0]
	*win = next
	win.v = v
}

// EdgeWindows returns windows over e's (dst, src) labels, read by epoch when
// byEpoch is set on a segmented tier-2 WET, and otherwise over EdgeLabels.
func (w *WET) EdgeWindows(e *Edge, tier Tier, byEpoch bool) (dst, src Window) {
	if byEpoch && tier == Tier2 && e.Segs != nil && !e.Dropped {
		dst = Window{span: span{parts: parts{wet: w, edge: e}}, byEpoch: true, ords: true}
		return dst, Window{span: span{parts: parts{wet: w, edge: e, src: true}}, byEpoch: true}
	}
	d, s := w.EdgeLabels(e, tier)
	dst, src = NewWindow(d), NewWindow(s)
	dst.ords = true
	return dst, src
}

// Len returns the length of the window's part (the segment last entered).
func (win *Window) Len() int { return win.n }

// enter points the window at the segment of ts's epoch, if there is one.
func (win *Window) enter(ts uint32) bool {
	epoch := int((ts - 1) / win.wet.EpochTS)
	if win.seq != nil && win.epoch == epoch {
		return true
	}
	k := sort.Search(win.count(), func(i int) bool { return win.bounds(i).epoch >= epoch })
	if k == win.count() || win.bounds(k).epoch != epoch {
		return false
	}
	win.enterPart(k)
	win.open()
	return true
}

// open spawns the cursor of segment pi, with an empty run.
func (win *Window) open() {
	win.seq, win.add = win.spawn()
	win.v, win.base = win.v[:0], 0
}

// Find returns the global index of value t in the strictly increasing
// sequence, or -1, reading only the part of the execution stamped ts: from
// the part's end backward or its start forward, then sliding toward t. An
// ordinal t lies at index t or below, so a backward ask starts there, and one
// above the previous ask starts afresh.
func (win *Window) Find(t, ts uint32, back bool) int {
	if win.byEpoch && !win.enter(ts) {
		return -1
	}
	win.grow(1)
	top := win.n
	if win.ords {
		top = max(min(top, int(t)+1-win.first), 0)
		if back && t > win.last {
			win.v = win.v[:0]
		}
		win.last = t
	}
	for {
		switch v := win.v; {
		case len(v) == 0:
			from := win.base
			if back {
				from = top
			}
			if win.fill(from, back, false) == 0 {
				return -1
			}
		case t < v[0]:
			if win.base == 0 {
				return -1
			}
			win.fill(min(win.base, top), true, win.base <= top)
		case t > v[len(v)-1]:
			if win.base+len(v) == win.n {
				return -1
			}
			win.fill(win.base+len(v), false, true)
		default:
			i := min(win.i, len(v)-1)
			for v[i] < t {
				i++
			}
			for v[i] > t {
				i--
			}
			if win.i = i; v[i] != t {
				return -1
			}
			return win.first + win.base + i
		}
	}
}

// At returns element i, which the caller knows exists, reading a run toward
// it if the window does not hold it: backward the run ending with i, forward
// the run from i, or from the cursor when i lies less than a run ahead.
func (win *Window) At(i int, back bool) uint32 {
	if win.ra != nil {
		return win.ra.At(i)
	}
	if win.byEpoch {
		pi := win.pi
		if i = win.locate(i); win.seq == nil || win.pi != pi {
			win.open()
		}
	}
	if uint(i-win.base) >= uint(len(win.v)) {
		win.hold(i, back)
	}
	return win.v[i-win.base]
}

// Run returns a whole-sequence window's run from element i on, read as At.
func (win *Window) Run(i int) []uint32 {
	if uint(i-win.base) >= uint(len(win.v)) {
		win.hold(i, false)
	}
	return win.v[i-win.base:]
}

// hold reads the run At and Run want when the window does not hold i.
func (win *Window) hold(i int, back bool) {
	win.grow(0)
	from := i
	if back {
		from++
	} else if pos := win.seq.Pos(); pos <= i && i < pos+WalkChunk {
		from = pos
	}
	win.fill(from, back, false)
}

// Read fills dst, a run of the caller's, with the elements from, from+1, …
// of a whole-sequence window, seeking only when the cursor stands elsewhere.
func (win *Window) Read(from int, dst []uint32) int {
	if win.seq.Pos() != from {
		win.seq.Seek(from)
	}
	return win.seq.NextN(dst)
}

// fill replaces the run with up to WalkChunk elements of the part ending just
// below index i (back) or starting at i, keeping the old run's edge element
// when keep is set, and returns how many it read.
func (win *Window) fill(i int, back, keep bool) int {
	v, k, n := win.v[:cap(win.v)], 0, min(WalkChunk, win.n-i)
	if back {
		n = min(WalkChunk, i)
	}
	if n <= 0 {
		win.v, win.base = v[:0], i
		return 0
	}
	if win.seq.Pos() != i {
		win.seq.Seek(i)
	}
	switch { // the kept edge goes last (back) or first
	case keep && back:
		v[n], k = v[0], 1
	case keep:
		v[0], k = v[len(win.v)-1], 1
	}
	if back {
		win.seq.PrevN(v[:n])
		slices.Reverse(v[:n])
		rebase(v[:n], win.add)
		win.v, win.base, win.i = v[:n+k], i-n, n+k-1
	} else {
		win.seq.NextN(v[k : k+n])
		rebase(v[k:k+n], win.add)
		win.v, win.base, win.i = v[:k+n], i-k, 0
	}
	return n
}

// grow sizes the run buffer to a run of the part, plus extra (Find's edge).
func (win *Window) grow(extra int) {
	if c := min(win.n, WalkChunk) + extra; cap(win.v) < c {
		win.v = append(make([]uint32, 0, c), win.v...)
	}
}
