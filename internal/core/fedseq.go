package core

import (
	"fmt"
	"sort"

	"wet/internal/stream"
)

// fedPart describes how to read one segment of a federated label sequence
// (bounds says where it lies): a tier-2 stream, or the ramp of an inferable
// edge segment (element k is ramp+k, stored nowhere). add re-bases every
// value read from it: a segment's local timestamps to global time, zero
// elsewhere.
type fedPart struct {
	add  uint32
	s    stream.Stream // nil for a synthesized ramp part
	ramp uint32        // first value of the ramp when s == nil
}

// parts names the segments of one federated sequence (timestamps, plain
// labels, or one side of an edge's labels) and builds nothing: at describes
// segment i on demand, the one place edge segments are resolved.
type parts struct {
	wet    *WET
	segs   *[]*LabelSeg // a pointer keeps a Window small
	edge   *Edge        // or the labels of edge, its source side when src is set
	stride uint32       // segment i's values are re-based by its epoch × stride
	src    bool
}

func (ps *parts) count() int {
	if ps.edge != nil {
		return len(ps.edge.Segs)
	}
	return len(*ps.segs)
}

func (ps *parts) at(i int) fedPart {
	if ps.edge == nil {
		sg := (*ps.segs)[i]
		return fedPart{s: sg.S, add: uint32(sg.Epoch) * ps.stride}
	}
	sg := ps.edge.Segs[i]
	p := fedPart{ramp: sg.RampBase}
	if sg.Inferable {
		return p
	}
	if sg.SharedWith >= 0 {
		sg = ps.wet.Edges[sg.SharedWith].Segs[sg.SharedSeg]
	}
	if p.s = sg.DstS; ps.src {
		p.s = sg.SrcS
	}
	return p
}

// segBounds is where a segment lies: its epoch, the global index of its
// first element, and its length.
type segBounds struct{ epoch, first, n int }

// bounds returns segment i's bounds, resolving no sharer.
func (ps *parts) bounds(i int) segBounds {
	if ps.edge != nil {
		sg := ps.edge.Segs[i]
		return segBounds{sg.Epoch, sg.Start, sg.N}
	}
	sg := (*ps.segs)[i]
	return segBounds{sg.Epoch, sg.Start, sg.N}
}

// span follows one part of a federated sequence, pi, with its bounds read
// off the segment when pi moves. Segments record their starts, so reaching
// a part costs a binary search, not a walk over the parts before it.
type span struct {
	parts
	pi int
	segBounds
}

// enterPart makes part pi current.
func (s *span) enterPart(pi int) { s.pi, s.segBounds = pi, s.bounds(pi) }

// spawn returns a new cursor over the current part, with the part's
// re-base.
func (s *span) spawn() (Seq, uint32) {
	p := s.parts.at(s.pi)
	if p.s != nil {
		return p.s.NewCursor(), p.add
	}
	return &rampSeq{ramp: p.ramp, n: s.n}, p.add
}

// locate makes the part holding global element i current; i's index in it.
func (s *span) locate(i int) int {
	if i < s.first || i >= s.first+s.n {
		s.enterPart(sort.Search(s.count(), func(k int) bool { return s.bounds(k).first > i }) - 1)
	}
	return i - s.first
}

// fedSeq federates per-epoch segments behind the Seq contract: one
// bidirectional cursor over the concatenation of all parts. It holds the
// cursor of the part the last read was in (span.pi), spawned when a read
// enters the part, so a fedSeq costs the segments it touches; each fedSeq
// owns its cursor, so any number may traverse one frozen WET concurrently.
// Sequential runs step the part's cursor without seeks; repositioning costs
// one checkpointed seek inside the target segment, and re-entering a part
// left behind one spawn more.
type fedSeq struct {
	span
	pos int
	cur Seq    // nil until a read needs it
	add uint32 // the part's re-base
}

func newFedSeq(ps parts) *fedSeq { return &fedSeq{span: span{parts: ps}} }

func (f *fedSeq) Len() int {
	k := f.count()
	if k == 0 {
		return 0
	}
	b := f.bounds(k - 1)
	return b.first + b.n
}

func (f *fedSeq) Pos() int { return f.pos }

// Seek only moves the logical position; the segment cursor repositions
// (checkpointed) on the next read.
func (f *fedSeq) Seek(i int) {
	if i < 0 || i > f.Len() {
		panic(fmt.Sprintf("core: seek to %d outside [0,%d]", i, f.Len()))
	}
	f.pos = i
}

// at makes the part holding global element i (i < Len) the current one, with
// its cursor placed so the next read in the given direction yields a run
// ending (back) or starting at i, and returns i's index within the part.
func (f *fedSeq) at(i int, back bool) (local int) {
	local = f.enter(i)
	// A backward read wants the cursor just past the element, so its Prev
	// yields it; a sequential run then needs no further seeks.
	want := local
	if back {
		want++
	}
	if f.cur.Pos() != want {
		f.cur.Seek(want)
	}
	return local
}

// enter makes the part holding element i current, spawning its cursor when
// the read moves into it.
func (f *fedSeq) enter(i int) (local int) {
	pi := f.pi
	if local = f.locate(i); f.cur == nil || f.pi != pi {
		f.cur, f.add = f.spawn()
	}
	return local
}

// Ceil places s, over an edge's destination labels (each at least its index),
// as stream.Ceil does (a tier-1 s exactly) before its first label ≥ t, at lo
// or after, and returns its position. A federation first skips unread the
// segments of epochs before ts's, the timestamp of execution t.
func Ceil(s Seq, t uint32, lo int, ts uint32) int {
	hi := min(int(t), s.Len()) // label t, if there is one, is ≥ t
	switch s := s.(type) {
	case *fedSeq:
		k := sort.Search(s.count(), func(k int) bool { return s.bounds(k).epoch >= int((ts-1)/s.wet.EpochTS) })
		if s.pos = hi; k < s.count() && max(lo, s.bounds(k).first) < hi {
			local := s.enter(max(lo, s.bounds(k).first))
			s.pos = s.first + Ceil(s.cur, t, local, ts)
		}
		return s.pos
	case RandomAccess: // before stream.Cursor, whose methods every Seq has
		lo += sort.Search(hi-lo, func(i int) bool { return s.At(lo+i) >= t })
	case stream.Cursor:
		return stream.Ceil(s, t, lo, hi)
	}
	s.Seek(lo)
	return lo
}

func (f *fedSeq) Next() uint32 {
	if f.pos >= f.Len() {
		panic("core: Seq Next past end")
	}
	f.at(f.pos, false)
	f.pos++
	return f.cur.Next() + f.add
}

func (f *fedSeq) Prev() uint32 {
	if f.pos == 0 {
		panic("core: Seq Prev past start")
	}
	f.pos--
	f.at(f.pos, true)
	return f.cur.Prev() + f.add
}

// NextN batches a forward run across segment boundaries: one part lookup
// and at most one cursor reposition per segment crossed.
func (f *fedSeq) NextN(dst []uint32) int {
	total := max(min(f.Len()-f.pos, len(dst)), 0)
	for done := 0; done < total; {
		local := f.at(f.pos, false)
		out := dst[done:min(total, done+f.n-local)]
		f.cur.NextN(out)
		rebase(out, f.add)
		done += len(out)
		f.pos += len(out)
	}
	return total
}

// PrevN batches a backward run the same way (dst in traversal order): each
// segment is entered with one checkpointed seek to its right edge.
func (f *fedSeq) PrevN(dst []uint32) int {
	total := max(min(f.pos, len(dst)), 0)
	for done := 0; done < total; {
		local := f.at(f.pos-1, true) // the part's elements below f.pos number local+1
		out := dst[done:min(total, done+local+1)]
		f.cur.PrevN(out)
		rebase(out, f.add)
		done += len(out)
		f.pos -= len(out)
	}
	return total
}

// rebase adds a part's epoch base to values read from it.
func rebase(v []uint32, add uint32) {
	if add != 0 {
		for i := range v {
			v[i] += add
		}
	}
}

// rampSeq is the cursor of a synthesized ramp part: element k is ramp+k.
type rampSeq struct {
	ramp   uint32
	n, pos int
}

func (r *rampSeq) Len() int        { return r.n }
func (r *rampSeq) Pos() int        { return r.pos }
func (r *rampSeq) Seek(i int)      { r.pos = i }
func (r *rampSeq) At(i int) uint32 { return r.ramp + uint32(i) }
func (r *rampSeq) Next() uint32    { r.pos++; return r.ramp + uint32(r.pos-1) }
func (r *rampSeq) Prev() uint32    { r.pos--; return r.ramp + uint32(r.pos) }

func (r *rampSeq) NextN(dst []uint32) int {
	n := min(len(dst), r.n-r.pos)
	for i := range dst[:n] {
		dst[i] = r.Next()
	}
	return n
}

func (r *rampSeq) PrevN(dst []uint32) int {
	n := min(len(dst), r.pos)
	for i := range dst[:n] {
		dst[i] = r.Prev()
	}
	return n
}
