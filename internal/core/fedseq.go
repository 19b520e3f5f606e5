package core

import (
	"fmt"
	"slices"

	"wet/internal/stream"
)

// fedPart describes one segment's contribution to a federated label
// sequence: either a tier-2 stream or a synthesized ramp for an inferable
// edge segment, whose k-th element is ramp+k and needs no storage at all. add
// is added to every value read from the part — it re-bases a segment's local
// timestamps to global time (zero for sequences whose stored values are
// already global: patterns, unique values, edge ordinals).
type fedPart struct {
	n    int
	add  uint32
	s    stream.Stream // nil for a synthesized ramp part
	ramp uint32        // first value of the ramp when s == nil
}

// fedSeq federates per-epoch segment streams behind the Seq contract: one
// logical bidirectional cursor over the concatenation of all parts. A part is
// described on demand, from the WET's own (immutable) segment tables, and its
// cursor spawned when a read first needs it, so a fedSeq costs its part
// offsets up front and otherwise what it touches: a query that reads a
// window of a sequence pays for the segment the window is in, not for a part
// table over every epoch of the run. Each fedSeq owns its cursors, so the
// detached-cursor concurrency contract of the factory API carries over
// unchanged: any number of fedSeqs may traverse one frozen segmented WET
// concurrently. Sequential Next/Prev runs touch the underlying cursors
// without seeks; repositioning costs one checkpointed seek inside the target
// segment.
type fedSeq struct {
	part   func(i int) fedPart
	starts []int // starts[i] = global index of part i's first element
	pos    int

	// The part the last read was in, and its cursor (nil until a read needs
	// it; always nil for a ramp). Cursors of parts left behind wait in kept,
	// sorted by part, so coming back resumes where the part was left.
	pi   int
	p    fedPart
	cur  stream.Cursor
	kept []keptCursor
}

type keptCursor struct {
	pi  int
	cur stream.Cursor
}

// newFedSeq builds a federated sequence over n parts (in segment order).
// starts, when non-nil, is the offset table of another fedSeq over parts of
// the same lengths; it is never written again.
func newFedSeq(n int, part func(i int) fedPart, starts []int) *fedSeq {
	if starts == nil {
		starts = make([]int, n+1)
		for i := 0; i < n; i++ {
			starts[i+1] = starts[i] + part(i).n
		}
	}
	return &fedSeq{part: part, starts: starts, pi: -1}
}

func (f *fedSeq) Len() int { return f.starts[len(f.starts)-1] }
func (f *fedSeq) Pos() int { return f.pos }

// Seek implements Seeker: it only moves the logical position; the segment
// cursor repositions (checkpointed) on the next read.
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
	if f.pi < 0 || i < f.starts[f.pi] || i >= f.starts[f.pi+1] {
		byPart := func(k keptCursor, pi int) int { return k.pi - pi }
		if k, ok := slices.BinarySearchFunc(f.kept, f.pi, byPart); f.cur != nil && !ok {
			f.kept = slices.Insert(f.kept, k, keptCursor{f.pi, f.cur})
		}
		lo, hi := 0, len(f.starts)-2
		for lo < hi {
			mid := (lo + hi) / 2
			if f.starts[mid+1] <= i {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		f.pi, f.p, f.cur = lo, f.part(lo), nil
		if k, ok := slices.BinarySearchFunc(f.kept, lo, byPart); ok {
			f.cur = f.kept[k].cur
		}
	}
	local = i - f.starts[f.pi]
	if f.p.s != nil {
		if f.cur == nil {
			f.cur = f.p.s.NewCursor()
		}
		// A backward read wants the cursor just past the element, so its
		// Prev yields it; a sequential run then needs no further seeks.
		want := local
		if back {
			want++
		}
		if f.cur.Pos() != want {
			f.cur.Seek(want)
		}
	}
	return local
}

func (f *fedSeq) Next() uint32 {
	if f.pos >= f.Len() {
		panic("core: Seq Next past end")
	}
	local := f.at(f.pos, false)
	f.pos++
	if f.p.s == nil {
		return f.p.ramp + uint32(local)
	}
	return f.cur.Next() + f.p.add
}

func (f *fedSeq) Prev() uint32 {
	if f.pos == 0 {
		panic("core: Seq Prev past start")
	}
	f.pos--
	local := f.at(f.pos, true)
	if f.p.s == nil {
		return f.p.ramp + uint32(local)
	}
	return f.cur.Prev() + f.p.add
}

// NextN batches a forward run across segment boundaries: one part lookup
// and at most one (checkpointed) cursor reposition per segment crossed, with
// the inner decode delegated to the segment cursor's batched stepping.
func (f *fedSeq) NextN(dst []uint32) int {
	total := max(min(f.Len()-f.pos, len(dst)), 0)
	for done := 0; done < total; {
		local := f.at(f.pos, false)
		out := dst[done:min(total, done+f.p.n-local)]
		if f.p.s == nil {
			for i := range out {
				out[i] = f.p.ramp + uint32(local+i)
			}
		} else {
			f.cur.NextN(out)
			if f.p.add != 0 {
				for i := range out {
					out[i] += f.p.add
				}
			}
		}
		done += len(out)
		f.pos += len(out)
	}
	return total
}

// PrevN batches a backward run the same way (dst in traversal order): each
// segment is entered with a single checkpointed seek to its right edge
// instead of one per element, so Prev-heavy scans stop replaying from the
// segment start at every step.
func (f *fedSeq) PrevN(dst []uint32) int {
	total := max(min(f.pos, len(dst)), 0)
	for done := 0; done < total; {
		local := f.at(f.pos-1, true) // the part's elements below f.pos number local+1
		out := dst[done:min(total, done+local+1)]
		if f.p.s == nil {
			for i := range out {
				out[i] = f.p.ramp + uint32(local-i)
			}
		} else {
			f.cur.PrevN(out)
			if f.p.add != 0 {
				for i := range out {
					out[i] += f.p.add
				}
			}
		}
		done += len(out)
		f.pos -= len(out)
	}
	return total
}

var (
	_ Seq     = (*fedSeq)(nil)
	_ Seeker  = (*fedSeq)(nil)
	_ BulkSeq = (*fedSeq)(nil)
)

// tsFed returns a federated cursor over n's timestamp segments, re-basing
// each segment's local timestamps by its epoch base.
func (w *WET) tsFed(n *Node) Seq {
	return newFedSeq(len(n.TSSegs), func(i int) fedPart {
		sg := n.TSSegs[i]
		return fedPart{n: sg.N, add: uint32(sg.Epoch) * w.EpochTS, s: sg.S}
	}, nil)
}

// labelFed returns a federated cursor over plain label segments whose values
// need no re-basing.
func labelFed(segs []*LabelSeg) Seq {
	return newFedSeq(len(segs), func(i int) fedPart { return fedPart{n: segs[i].N, s: segs[i].S} }, nil)
}

// patFed returns a federated cursor over g's pattern segments. Pattern
// entries index the run-global unique-value table, so no re-basing applies.
func (w *WET) patFed(g *Group) Seq { return labelFed(g.PatSegs) }

// uvalFed returns a federated cursor over the unique values of
// g.ValMembers[mi]. Each segment holds the values first observed in its
// epoch, so the concatenation is the run-global discovery order.
func (w *WET) uvalFed(g *Group, mi int) Seq { return labelFed(g.UValSegs[mi]) }

// edgeFed returns federated (dst, src) cursors over e's label segments:
// inferable segments synthesize their ordinal ramp, shared segments read the
// representative edge's streams, and diagonal segments read the destination
// stream on both sides (through independent cursors).
func (w *WET) edgeFed(e *Edge) (dst, src Seq) {
	side := func(source bool) func(i int) fedPart {
		return func(i int) fedPart {
			sg := e.Segs[i]
			if sg.Inferable {
				return fedPart{n: sg.N, ramp: sg.RampBase}
			}
			if sg.SharedWith >= 0 {
				sg = w.Edges[sg.SharedWith].Segs[sg.SharedSeg]
			}
			if source && !sg.Diagonal {
				return fedPart{n: e.Segs[i].N, s: sg.SrcS}
			}
			return fedPart{n: e.Segs[i].N, s: sg.DstS}
		}
	}
	d := newFedSeq(len(e.Segs), side(false), nil)
	return d, newFedSeq(len(e.Segs), side(true), d.starts)
}
