package wetio

// The node and edge record codec: one writer and one reader per record kind
// for every container version. DESIGN.md ("Record layout") is the single
// description of the two payloads; a v2 record is byte for byte a v3 one,
// and v4 differs only in what a label list is — a list of per-epoch segments
// instead of one whole-run stream — which writeLabels/readLabels (node side)
// and writeEdgeLabels/readEdgeLabels (edge side) confine. Readers walk a
// wire.Dec: over a section's payload, or over the unframed v2 body.

import (
	"fmt"

	"wet/internal/core"
	"wet/internal/stream"
	"wet/internal/wire"
)

// v4 edge segment forms (flags byte). Bit 1 is retired: a segment that sets
// it is refused as invalid flags.
const (
	segInferable = 1 << 0
	segShared    = 1 << 2
)

// at returns xs[i], or the zero value past the end (budget-dropped groups
// keep shorter — or no — per-member lists).
func at[T any](xs []T, i int) (zero T) {
	if i < len(xs) {
		return xs[i]
	}
	return zero
}

// writeLabels writes one node-side label list: the whole-run stream s, or on
// a segmented (v4) container the segment list segs.
func writeLabels(w *wire.Enc, segmented bool, s stream.Stream, segs []*core.LabelSeg) error {
	if !segmented {
		return stream.Encode(w, s)
	}
	w.U32(uint32(len(segs)))
	for _, sg := range segs {
		w.U32(uint32(sg.Epoch))
		w.U32(uint32(sg.N))
		if err := stream.Encode(w, sg.S); err != nil {
			return err
		}
	}
	return nil
}

func writeNode(w *wire.Enc, n *core.Node, segmented bool) error {
	w.I32(int32(n.Fn))
	w.I64(n.PathID)
	w.U32(uint32(n.Execs))
	if err := writeLabels(w, segmented, n.TSS, n.TSSegs); err != nil {
		return err
	}
	putInts(w, n.CFNext)
	putInts(w, n.CFPrev)
	w.U32(uint32(len(n.Groups)))
	for _, g := range n.Groups {
		w.U32(uint32(g.UniqueKeys()))
		w.U32(uint32(len(g.ValMembers)))
		if err := writeLabels(w, segmented, g.PatternS, g.PatSegs); err != nil {
			return err
		}
		for mi := range g.ValMembers {
			if err := writeLabels(w, segmented, at(g.UValS, mi), at(g.UValSegs, mi)); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeLabelPair writes the stored streams of one owned label-pair sequence:
// destination ordinals, then source ordinals.
func writeLabelPair(w *wire.Enc, dst, src stream.Stream) error {
	if err := stream.Encode(w, dst); err != nil {
		return err
	}
	return stream.Encode(w, src)
}

// writeEdgeLabels writes an edge's label list: on v3 the owned pair (nothing
// for inferable edges and sharers), on v4 the per-epoch segment list.
func writeEdgeLabels(w *wire.Enc, e *core.Edge, segmented bool) error {
	if !segmented {
		if e.Inferable || e.SharedWith >= 0 {
			return nil
		}
		return writeLabelPair(w, e.DstS, e.SrcS)
	}
	w.U32(uint32(len(e.Segs)))
	for _, sg := range e.Segs {
		w.U32(uint32(sg.Epoch))
		w.U32(uint32(sg.N))
		switch {
		case sg.Inferable:
			w.U8(segInferable)
			w.U32(sg.RampBase)
		case sg.SharedWith >= 0:
			w.U8(segShared)
			w.I32(int32(sg.SharedWith))
			w.I32(int32(sg.SharedSeg))
		default:
			w.U8(0)
			if err := writeLabelPair(w, sg.DstS, sg.SrcS); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeEdge(w *wire.Enc, e *core.Edge, segmented bool) error {
	w.U8(uint8(e.Kind))
	for _, v := range [...]int{e.SrcNode, e.SrcPos, e.DstNode, e.DstPos, e.OpIdx} {
		w.I32(int32(v))
	}
	w.U32(uint32(e.Count))
	w.Bool(e.Inferable)
	w.U8(0) // the retired diagonal form; readers refuse anything else
	w.I32(int32(e.SharedWith))
	return writeEdgeLabels(w, e, segmented)
}

// readLabels reads one node-side label list of want entries (want < 0: a
// budget-dropped list, whose length is not checked). v2/v3 hold one bare
// stream; v4 holds a segment list whose epochs must be strictly increasing
// inside [0, Epochs), each segment non-empty and as long as it declares.
func readLabels(d *wire.Dec, wet *core.WET, want int, opts LoadOptions) (stream.Stream, []*core.LabelSeg, error) {
	if !wet.Segmented() {
		s, err := loadStream(d, opts)
		if err == nil && want >= 0 && s.Len() != want {
			err = fmt.Errorf("stream has %d entries, want %d", s.Len(), want)
		}
		return s, nil, err
	}
	count := d.Count(9)
	slab := make([]core.LabelSeg, count) // one allocation for the list's segments
	segs := make([]*core.LabelSeg, count)
	total, lastEpoch := 0, -1
	for i := range slab {
		epoch, n := d.U32(), d.U32()
		if err := d.Err(); err != nil {
			return nil, nil, err
		}
		if int(epoch) <= lastEpoch || int(epoch) >= wet.Epochs {
			return nil, nil, fmt.Errorf("segment epoch %d out of order or range", epoch)
		}
		lastEpoch = int(epoch)
		if n == 0 {
			return nil, nil, fmt.Errorf("segment (epoch %d) empty", epoch)
		}
		opts.segEpoch = int(epoch)
		s, err := loadStream(d, opts)
		if err != nil {
			return nil, nil, err
		}
		if s.Len() != int(n) {
			return nil, nil, fmt.Errorf("segment (epoch %d) stream has %d entries, record says %d", epoch, s.Len(), n)
		}
		slab[i] = core.LabelSeg{Epoch: int(epoch), N: int(n), Start: total, S: s}
		total += int(n)
		segs[i] = &slab[i]
	}
	if err := d.Err(); err != nil {
		return nil, nil, err
	}
	if want >= 0 && total != want {
		return nil, nil, fmt.Errorf("segments hold %d entries, want %d", total, want)
	}
	return nil, segs, nil
}

// readNode decodes node record id of nNodes. The static side (statements,
// groups) is rebuilt from the program; the record supplies the labels.
func readNode(d *wire.Dec, wet *core.WET, id, nNodes int, opts LoadOptions) (*core.Node, error) {
	fn, pathID, execs := d.I32(), d.I64(), d.U32()
	if err := d.Err(); err != nil {
		return nil, err
	}
	st := wet.Static
	if fn < 0 || int(fn) >= len(st.Prog.Funcs) {
		return nil, fmt.Errorf("function index %d outside [0,%d)", fn, len(st.Prog.Funcs))
	}
	n, err := core.RestoreNode(st, id, int(fn), pathID)
	if err != nil {
		return nil, err
	}
	n.Execs = int(execs)
	if n.TSS, n.TSSegs, err = readLabels(d, wet, n.Execs, opts); err != nil {
		return nil, fmt.Errorf("timestamps: %w", err)
	}
	for _, sg := range n.TSSegs {
		if uint64(sg.N) > uint64(wet.EpochTS) {
			return nil, fmt.Errorf("timestamp segment (epoch %d) holds %d executions, epoch has %d timestamps", sg.Epoch, sg.N, wet.EpochTS)
		}
	}
	if n.CFNext, err = readCFList(d, nNodes); err != nil {
		return nil, err
	}
	if n.CFPrev, err = readCFList(d, nNodes); err != nil {
		return nil, err
	}
	nGroups := d.Count(1)
	if err := d.Err(); err != nil {
		return nil, err
	}
	if nGroups != len(n.Groups) {
		return nil, fmt.Errorf("node has %d groups, file says %d", len(n.Groups), nGroups)
	}
	for gi, g := range n.Groups {
		uniq, nuv := d.U32(), d.U32()
		if err := d.Err(); err != nil {
			return nil, err
		}
		g.RestoreUniqueKeys(int(uniq))
		if int(nuv) != len(g.ValMembers) {
			return nil, fmt.Errorf("group has %d value members, file says %d", len(g.ValMembers), nuv)
		}
		// A budget-dropped group keeps the payload shape with empty
		// placeholders (v3: empty streams, v4: zero-count segment lists), so
		// the entry-count checks do not apply.
		wantPat, wantUV := n.Execs, int(uniq)
		if g.Dropped = opts.fid.GroupDropped(id, gi); g.Dropped {
			wantPat, wantUV = -1, -1
		}
		if g.PatternS, g.PatSegs, err = readLabels(d, wet, wantPat, opts); err != nil {
			return nil, fmt.Errorf("group %d pattern: %w", gi, err)
		}
		if !wet.Segmented() {
			g.UValS = make([]stream.Stream, nuv)
		} else if nuv > 0 {
			g.UValSegs = make([][]*core.LabelSeg, nuv)
		}
		for mi := 0; mi < int(nuv); mi++ {
			s, segs, err := readLabels(d, wet, wantUV, opts)
			if err != nil {
				return nil, fmt.Errorf("group %d uvals[%d]: %w", gi, mi, err)
			}
			if wet.Segmented() {
				g.UValSegs[mi] = segs
			} else {
				g.UValS[mi] = s
			}
		}
	}
	return n, nil
}

// readLabelPair reads what writeLabelPair wrote, each stream holding want
// labels (want < 0: a budget-dropped owner's placeholders, unchecked).
func readLabelPair(d *wire.Dec, want int, opts LoadOptions) (dst, src stream.Stream, err error) {
	if dst, err = loadStream(d, opts); err != nil {
		return nil, nil, err
	}
	if want >= 0 && dst.Len() != want {
		return nil, nil, fmt.Errorf("destination labels have %d entries, want %d", dst.Len(), want)
	}
	if src, err = loadStream(d, opts); err != nil {
		return nil, nil, err
	}
	if want >= 0 && src.Len() != want {
		return nil, nil, fmt.Errorf("source labels have %d entries, want %d", src.Len(), want)
	}
	return dst, src, nil
}

// readEdge decodes edge record id of nEdges into e against the node table.
func readEdge(d *wire.Dec, wet *core.WET, e *core.Edge, id, nEdges int, opts LoadOptions) error {
	*e = core.Edge{
		Kind: core.EdgeKind(d.U8()), SrcNode: int(d.I32()), SrcPos: int(d.I32()),
		DstNode: int(d.I32()), DstPos: int(d.I32()), OpIdx: int(d.I32()),
		Count: int(d.U32()), Inferable: d.U8() == 1,
	}
	diagonal := d.U8()
	e.SharedWith = int(d.I32())
	if err := d.Err(); err != nil {
		return err
	}
	if diagonal != 0 {
		return fmt.Errorf("diagonal byte is %#x: the diagonal edge form is retired", diagonal)
	}
	if err := checkEdge(wet, e, nEdges); err != nil {
		return err
	}
	return readEdgeLabels(d, wet, e, id, opts)
}

// readEdgeLabels reads what writeEdgeLabels wrote into e.
func readEdgeLabels(d *wire.Dec, wet *core.WET, e *core.Edge, id int, opts LoadOptions) (err error) {
	if !wet.Segmented() {
		// A budget-dropped owner keeps placeholder streams (sharers of a
		// dropped owner store nothing, as always), so only the length checks
		// are relaxed.
		e.Dropped = opts.fid.EdgeDropped(id)
		if e.Inferable || e.SharedWith >= 0 {
			return nil
		}
		want := e.Count
		if e.Dropped {
			want = -1
		}
		e.DstS, e.SrcS, err = readLabelPair(d, want, opts)
		return err
	}
	// The streaming pipeline reduces per segment, not per whole edge: the
	// edge-level shared form never appears in a v4 file.
	if e.SharedWith >= 0 {
		return fmt.Errorf("edge-level shared form is not valid in v4")
	}
	nSegs := d.Count(9)
	if err := d.Err(); err != nil {
		return err
	}
	// Whole-run inferable edges store nothing; a budget-dropped edge keeps
	// its record (endpoints and adjacency survive) but no label segments.
	if e.Inferable {
		if nSegs != 0 {
			return fmt.Errorf("whole-run inferable edge carries %d segments", nSegs)
		}
		return nil
	}
	if e.Dropped = opts.fid.EdgeDropped(id); e.Dropped {
		if nSegs != 0 {
			return fmt.Errorf("budget-dropped edge carries %d segments", nSegs)
		}
		return nil
	}
	slab := make([]core.EdgeSeg, nSegs) // one allocation for the edge's segments
	e.Segs = make([]*core.EdgeSeg, nSegs)
	total, lastEpoch := 0, -1
	for si := range slab {
		epoch, n, flags := d.U32(), d.U32(), d.U8()
		if err := d.Err(); err != nil {
			return err
		}
		if int(epoch) <= lastEpoch || int(epoch) >= wet.Epochs {
			return fmt.Errorf("segment %d epoch %d out of order or range", si, epoch)
		}
		lastEpoch = int(epoch)
		if n == 0 || int(n) > e.Count {
			return fmt.Errorf("segment %d holds %d labels, edge count is %d", si, n, e.Count)
		}
		sg := &slab[si]
		*sg = core.EdgeSeg{Epoch: int(epoch), N: int(n), Start: total, SharedWith: -1, SharedSeg: -1}
		e.Segs[si] = sg
		switch flags {
		case segInferable:
			sg.RampBase = d.U32()
			sg.Inferable = true
		case segShared:
			ow, os := d.I32(), d.I32()
			if err := d.Err(); err != nil {
				return err
			}
			if ow < 0 || int(ow) >= id || os < 0 {
				return fmt.Errorf("segment %d shares with edge %d segment %d (this is edge %d)", si, ow, os, id)
			}
			sg.SharedWith, sg.SharedSeg = int(ow), int(os)
		case 0:
			opts.segEpoch = int(epoch)
			if sg.DstS, sg.SrcS, err = readLabelPair(d, sg.N, opts); err != nil {
				return fmt.Errorf("segment %d: %w", si, err)
			}
		default:
			return fmt.Errorf("segment %d has invalid flags %#x", si, flags)
		}
		total += sg.N
	}
	if err := d.Err(); err != nil {
		return err
	}
	if total != e.Count {
		return fmt.Errorf("segments hold %d labels, edge count is %d", total, e.Count)
	}
	return nil
}

// checkEdge validates a deserialized edge's coordinates against the node
// structure (corrupt files must error, not index out of range).
func checkEdge(wet *core.WET, e *core.Edge, nEdges int) error {
	if e.SrcNode < 0 || e.SrcNode >= len(wet.Nodes) || e.DstNode < 0 || e.DstNode >= len(wet.Nodes) {
		return fmt.Errorf("wetio: edge node out of range")
	}
	if e.SrcPos < 0 || e.SrcPos >= len(wet.Nodes[e.SrcNode].Stmts) ||
		e.DstPos < 0 || e.DstPos >= len(wet.Nodes[e.DstNode].Stmts) {
		return fmt.Errorf("wetio: edge position out of range")
	}
	if e.SharedWith >= nEdges || e.SharedWith < -1 {
		return fmt.Errorf("wetio: edge share reference out of range")
	}
	if e.Kind != core.DD && e.Kind != core.CD {
		return fmt.Errorf("wetio: bad edge kind %d", e.Kind)
	}
	return nil
}

// shareDamage reports why edge i of the file's edge table cannot keep its
// labels (nil when it can): its shared-label representative, or that of one
// of its segments, was not loaded (alive), is not earlier in the file
// (segments), or does not own matching labels.
func shareDamage(edges []core.Edge, alive []bool, i int) error {
	e := &edges[i]
	if w := e.SharedWith; w >= 0 &&
		(w >= len(alive) || !alive[w] || edges[w].SharedWith >= 0 || edges[w].Inferable) {
		return fmt.Errorf("shared label representative %d not recovered", w)
	}
	for si, sg := range e.Segs {
		if sg.SharedWith < 0 {
			continue
		}
		if sg.SharedWith >= i || !alive[sg.SharedWith] {
			return fmt.Errorf("segment %d shared label representative %d not recovered", si, sg.SharedWith)
		}
		rep := &edges[sg.SharedWith]
		if sg.SharedSeg >= len(rep.Segs) {
			return fmt.Errorf("segment %d share reference %d/%d out of range", si, sg.SharedWith, sg.SharedSeg)
		}
		rs := rep.Segs[sg.SharedSeg]
		if rs.Inferable || rs.SharedWith >= 0 || rs.DstS == nil || rs.Epoch != sg.Epoch || rs.N != sg.N {
			return fmt.Errorf("segment %d representative %d/%d does not hold matching labels", si, sg.SharedWith, sg.SharedSeg)
		}
	}
	return nil
}
