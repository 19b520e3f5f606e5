package core

import (
	"fmt"
	"slices"

	"wet/internal/stream"
)

// fedPart describes one segment of a federated label sequence: a tier-2
// stream, or the ramp of an inferable edge segment (element k is ramp+k,
// stored nowhere). add re-bases every value read from it: a segment's local
// timestamps to global time, zero elsewhere.
type fedPart struct {
	n, epoch int
	add      uint32
	s        stream.Stream // nil for a synthesized ramp part
	ramp     uint32        // first value of the ramp when s == nil
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
		return fedPart{n: sg.N, epoch: sg.Epoch, s: sg.S, add: uint32(sg.Epoch) * ps.stride}
	}
	sg := ps.edge.Segs[i]
	p := fedPart{n: sg.N, epoch: sg.Epoch, ramp: sg.RampBase}
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

// span follows one part of a federated sequence and, as a running sum kept
// for part sumPi and moved to pi only when asked, the global index of its
// first element: a reader that stays in one segment pays for no other, and
// none builds a table over every epoch of the run.
type span struct {
	parts
	pi, sumPi, sum int
}

// start returns the global index of part pi's first element.
func (s *span) start() int {
	if s.sumPi != s.pi {
		s.move()
	}
	return s.sum
}

func (s *span) move() {
	for ; s.sumPi < s.pi; s.sumPi++ {
		s.sum += s.at(s.sumPi).n
	}
	for ; s.sumPi > s.pi; s.sumPi-- {
		s.sum -= s.at(s.sumPi - 1).n
	}
}

// locate makes the part holding global element i current; i's index in it.
func (s *span) locate(i int) int {
	for i < s.start() {
		s.pi--
	}
	for i >= s.start()+s.at(s.pi).n {
		s.pi++
	}
	return i - s.sum
}

// fedSeq federates per-epoch segments behind the Seq contract: one
// bidirectional cursor over the concatenation of all parts. A part's cursor
// is spawned when a read first needs it, so a fedSeq costs the segments it
// touches; each fedSeq owns its cursors, so any number may traverse one
// frozen WET concurrently. Sequential runs step the segment cursors without
// seeks; repositioning costs one checkpointed seek inside the target segment.
type fedSeq struct {
	span
	size int // Len, summed on first use (-1 before)
	pos  int

	// The part the last read was in (span.pi) and its cursor: nil until a read
	// needs it, ramp for a ramp part. Stream cursors of parts left behind wait
	// in kept, sorted by part, so coming back resumes where it was left.
	p    fedPart
	cur  Seq
	ramp rampSeq
	kept []keptCursor
}

type keptCursor struct {
	pi  int
	cur Seq
}

func newFedSeq(ps parts) *fedSeq { return &fedSeq{span: span{parts: ps}, size: -1} }

func (f *fedSeq) Len() int {
	if f.size < 0 {
		f.size = 0
		for i := range f.count() {
			f.size += f.parts.at(i).n
		}
	}
	return f.size
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
	pi := f.pi
	if local = f.locate(i); f.cur == nil || f.pi != pi {
		byPart := func(k keptCursor, pi int) int { return k.pi - pi }
		if k, ok := slices.BinarySearchFunc(f.kept, pi, byPart); f.cur != nil && f.p.s != nil && !ok {
			f.kept = slices.Insert(f.kept, k, keptCursor{pi, f.cur})
		}
		f.p = f.parts.at(f.pi)
		if k, ok := slices.BinarySearchFunc(f.kept, f.pi, byPart); ok {
			f.cur = f.kept[k].cur
		} else if f.p.s != nil {
			f.cur = f.p.s.NewCursor()
		} else {
			f.ramp = rampSeq{ramp: f.p.ramp, n: f.p.n}
			f.cur = &f.ramp
		}
	}
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

func (f *fedSeq) Next() uint32 {
	if f.pos >= f.Len() {
		panic("core: Seq Next past end")
	}
	f.at(f.pos, false)
	f.pos++
	return f.cur.Next() + f.p.add
}

func (f *fedSeq) Prev() uint32 {
	if f.pos == 0 {
		panic("core: Seq Prev past start")
	}
	f.pos--
	f.at(f.pos, true)
	return f.cur.Prev() + f.p.add
}

// NextN batches a forward run across segment boundaries: one part lookup
// and at most one cursor reposition per segment crossed.
func (f *fedSeq) NextN(dst []uint32) int {
	total := max(min(f.Len()-f.pos, len(dst)), 0)
	for done := 0; done < total; {
		local := f.at(f.pos, false)
		out := dst[done:min(total, done+f.p.n-local)]
		f.cur.NextN(out)
		rebase(out, f.p.add)
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
		rebase(out, f.p.add)
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

func (r *rampSeq) Len() int     { return r.n }
func (r *rampSeq) Pos() int     { return r.pos }
func (r *rampSeq) Seek(i int)   { r.pos = i }
func (r *rampSeq) Next() uint32 { r.pos++; return r.ramp + uint32(r.pos-1) }
func (r *rampSeq) Prev() uint32 { r.pos--; return r.ramp + uint32(r.pos) }

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
