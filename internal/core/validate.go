package core

import (
	"fmt"
)

// Validate checks a frozen WET's internal consistency: node timestamps are
// strictly increasing and partition 1..Time exactly, group patterns index
// inside their unique-value arrays, edges reference real statement
// positions with labels of matching lengths, and adjacency lists agree with
// the edge table. On segmented WETs it additionally checks the segment
// structure (epoch ranges, per-epoch execution tiling, share and ramp
// references) and then reads the label sequences through the same federated
// cursors queries use. It reads tier-2 streams (the representation of
// record) through throwaway cursors, and is intended for use after
// deserialization or in tests; cost is O(size of the WET).
func (w *WET) Validate() error {
	if !w.frozen {
		return fmt.Errorf("core: Validate requires a frozen WET")
	}
	if w.Segmented() {
		if err := w.validateSegments(); err != nil {
			return err
		}
	}
	if w.Conc != nil {
		if err := w.validateConc(); err != nil {
			return err
		}
	}
	// A budget-degraded WET relaxes the timestamp invariants: widened
	// (stride-sampled) timestamps are non-decreasing per node, repeat
	// across nodes, and no longer partition 1..Time, so only the range is
	// checked. Dropped groups and edges carry placeholder (or no) streams
	// and are skipped entirely — their capability checks live in the
	// cursor factories.
	sampled := w.TSStride > 0
	seen := make(map[uint32]bool, w.Time)
	for _, n := range w.Nodes {
		if !w.Segmented() && (n.TSS == nil || n.TSS.Len() != n.Execs) {
			return fmt.Errorf("core: node %d ts stream has %d entries, executed %d times", n.ID, seqLenOrZero(n), n.Execs)
		}
		tsc := w.ApproxTSSeq(n, Tier2)
		if tsc.Len() != n.Execs {
			return fmt.Errorf("core: node %d ts sequence has %d entries, executed %d times", n.ID, tsc.Len(), n.Execs)
		}
		last := uint32(0)
		for i := 0; i < n.Execs; i++ {
			ts := tsc.Next()
			if sampled {
				if ts < last || ts == 0 || ts > w.Time {
					return fmt.Errorf("core: node %d sampled timestamp %d out of order or range", n.ID, ts)
				}
				last = ts
				continue
			}
			if ts <= last || ts > w.Time {
				return fmt.Errorf("core: node %d timestamp %d out of order or range", n.ID, ts)
			}
			if seen[ts] {
				return fmt.Errorf("core: timestamp %d appears twice", ts)
			}
			seen[ts] = true
			last = ts
		}
		for gi, g := range n.Groups {
			if g.Dropped {
				continue
			}
			if !w.Segmented() && g.PatternS == nil {
				return fmt.Errorf("core: node %d group %d has no pattern stream", n.ID, gi)
			}
			pc := w.PatternSeq(g, Tier2)
			if pc.Len() != n.Execs {
				return fmt.Errorf("core: node %d group %d pattern has %d entries, want %d", n.ID, gi, pc.Len(), n.Execs)
			}
			uniq := -1
			for mi := range g.ValMembers {
				l := w.UValSeq(g, mi, Tier2).Len()
				if uniq >= 0 && l != uniq {
					return fmt.Errorf("core: node %d group %d unique-value arrays disagree", n.ID, gi)
				}
				uniq = l
			}
			if uniq >= 0 {
				for i := 0; i < pc.Len(); i++ {
					if idx := pc.Next(); int(idx) >= uniq {
						return fmt.Errorf("core: node %d group %d pattern index %d out of %d", n.ID, gi, idx, uniq)
					}
				}
			}
		}
	}
	if !sampled && uint32(len(seen)) != w.Time {
		return fmt.Errorf("core: %d timestamps present, want %d", len(seen), w.Time)
	}

	for ei, e := range w.Edges {
		if e.SrcNode < 0 || e.SrcNode >= len(w.Nodes) || e.DstNode < 0 || e.DstNode >= len(w.Nodes) {
			return fmt.Errorf("core: edge %d node out of range", ei)
		}
		src, dst := w.Nodes[e.SrcNode], w.Nodes[e.DstNode]
		if e.SrcPos < 0 || e.SrcPos >= len(src.Stmts) || e.DstPos < 0 || e.DstPos >= len(dst.Stmts) {
			return fmt.Errorf("core: edge %d position out of range", ei)
		}
		switch {
		case e.Dropped:
			// Labels discarded by a byte-budgeted freeze: only the static
			// endpoints (checked above) and adjacency (below) remain.
		case e.Inferable:
			if e.SrcNode != e.DstNode {
				return fmt.Errorf("core: edge %d inferable but not local", ei)
			}
		case e.SharedWith >= 0:
			if e.SharedWith >= len(w.Edges) || w.Edges[e.SharedWith].SharedWith >= 0 || w.Edges[e.SharedWith].Inferable {
				return fmt.Errorf("core: edge %d has bad share representative %d", ei, e.SharedWith)
			}
		default:
			if !w.Segmented() {
				if e.DstS == nil || e.SrcS == nil {
					return fmt.Errorf("core: edge %d lacks label streams", ei)
				}
			}
			dc, sc := w.EdgeLabels(e, Tier2)
			if dc.Len() != e.Count || sc.Len() != e.Count {
				return fmt.Errorf("core: edge %d label lengths, count %d", ei, e.Count)
			}
			lastD := int64(-1)
			for i := 0; i < e.Count; i++ {
				d := int64(dc.Next())
				s := int64(sc.Next())
				if d <= lastD {
					return fmt.Errorf("core: edge %d destination ordinals not increasing", ei)
				}
				lastD = d
				if d >= int64(dst.Execs) || s >= int64(src.Execs) {
					return fmt.Errorf("core: edge %d ordinal out of range", ei)
				}
			}
		}
		// Adjacency must reference this edge.
		foundIn := false
		for _, idx := range dst.InEdges[e.DstPos] {
			if idx == ei {
				foundIn = true
			}
		}
		foundOut := false
		for _, idx := range src.OutEdges[e.SrcPos] {
			if idx == ei {
				foundOut = true
			}
		}
		if !foundIn || !foundOut {
			return fmt.Errorf("core: edge %d missing from adjacency lists", ei)
		}
	}
	return nil
}

func seqLenOrZero(n *Node) int {
	if n.TSS == nil {
		return 0
	}
	return n.TSS.Len()
}

// validateSegments checks the segment structure of a streamed WET: every
// label segment carries a stream of the recorded length, epochs are in
// range and strictly increasing per sequence, the per-node segments tile
// the execution count, per-segment share references point to an earlier
// owning edge's materialized segment, and inferable edge segments match the
// destination node's per-epoch execution window exactly.
func (w *WET) validateSegments() error {
	if w.Epochs < 0 || (w.Time > 0 && w.Epochs != int((uint64(w.Time)+uint64(w.EpochTS)-1)/uint64(w.EpochTS))) {
		return fmt.Errorf("core: %d epochs inconsistent with time %d at epoch size %d", w.Epochs, w.Time, w.EpochTS)
	}
	checkSegs := func(what string, segs []*LabelSeg, wantTotal int) error {
		total, lastEpoch := 0, -1
		for _, sg := range segs {
			if sg.Epoch <= lastEpoch || sg.Epoch >= w.Epochs {
				return fmt.Errorf("core: %s segment epoch %d out of order or range", what, sg.Epoch)
			}
			lastEpoch = sg.Epoch
			if sg.S == nil || sg.S.Len() != sg.N || sg.N <= 0 {
				return fmt.Errorf("core: %s segment (epoch %d) stream/length mismatch", what, sg.Epoch)
			}
			total += sg.N
		}
		if wantTotal >= 0 && total != wantTotal {
			return fmt.Errorf("core: %s segments hold %d entries, want %d", what, total, wantTotal)
		}
		return nil
	}

	// nodeEpochWindow[node][epoch] = (starting ordinal, executions) —
	// derived from the timestamp segments, used to pin inferable edge
	// segment ramps.
	type window struct{ start, n int }
	windows := make([]map[int]window, len(w.Nodes))
	for _, n := range w.Nodes {
		if err := checkSegs(fmt.Sprintf("node %d ts", n.ID), n.TSSegs, n.Execs); err != nil {
			return err
		}
		wm := make(map[int]window, len(n.TSSegs))
		start := 0
		for _, sg := range n.TSSegs {
			if uint64(sg.N) > uint64(w.EpochTS) {
				return fmt.Errorf("core: node %d ts segment (epoch %d) holds %d executions, epoch has %d timestamps", n.ID, sg.Epoch, sg.N, w.EpochTS)
			}
			wm[sg.Epoch] = window{start: start, n: sg.N}
			start += sg.N
		}
		windows[n.ID] = wm
		for gi, g := range n.Groups {
			if g.Dropped {
				continue
			}
			if err := checkSegs(fmt.Sprintf("node %d group %d pattern", n.ID, gi), g.PatSegs, n.Execs); err != nil {
				return err
			}
			for mi := range g.UValSegs {
				if err := checkSegs(fmt.Sprintf("node %d group %d uvals[%d]", n.ID, gi, mi), g.UValSegs[mi], -1); err != nil {
					return err
				}
			}
		}
	}

	for ei, e := range w.Edges {
		if e.Inferable || e.Dropped {
			continue
		}
		if e.DstNode < 0 || e.DstNode >= len(w.Nodes) {
			return fmt.Errorf("core: edge %d node out of range", ei)
		}
		total, lastEpoch := 0, -1
		for si, sg := range e.Segs {
			if sg.Epoch <= lastEpoch || sg.Epoch >= w.Epochs {
				return fmt.Errorf("core: edge %d segment %d epoch %d out of order or range", ei, si, sg.Epoch)
			}
			lastEpoch = sg.Epoch
			if sg.N <= 0 {
				return fmt.Errorf("core: edge %d segment %d empty", ei, si)
			}
			total += sg.N
			wn, ok := windows[e.DstNode][sg.Epoch]
			if !ok {
				return fmt.Errorf("core: edge %d segment %d: destination node %d did not execute in epoch %d", ei, si, e.DstNode, sg.Epoch)
			}
			switch {
			case sg.Inferable:
				if sg.N != wn.n || int(sg.RampBase) != wn.start {
					return fmt.Errorf("core: edge %d segment %d: inferable ramp [%d,+%d) does not match node window [%d,+%d)", ei, si, sg.RampBase, sg.N, wn.start, wn.n)
				}
			case sg.SharedWith >= 0:
				if sg.SharedWith >= ei || sg.SharedWith < 0 {
					return fmt.Errorf("core: edge %d segment %d shares with non-earlier edge %d", ei, si, sg.SharedWith)
				}
				rep := w.Edges[sg.SharedWith]
				if sg.SharedSeg < 0 || sg.SharedSeg >= len(rep.Segs) {
					return fmt.Errorf("core: edge %d segment %d share reference out of range", ei, si)
				}
				rs := rep.Segs[sg.SharedSeg]
				if rs.Inferable || rs.SharedWith >= 0 || rs.DstS == nil || rs.Epoch != sg.Epoch || rs.N != sg.N {
					return fmt.Errorf("core: edge %d segment %d has bad share representative", ei, si)
				}
			default:
				if sg.DstS == nil || sg.DstS.Len() != sg.N || sg.SrcS == nil || sg.SrcS.Len() != sg.N {
					return fmt.Errorf("core: edge %d segment %d stream/length mismatch", ei, si)
				}
			}
			if sg.N > wn.n {
				return fmt.Errorf("core: edge %d segment %d holds %d labels, node executed %d times in epoch %d", ei, si, sg.N, wn.n, sg.Epoch)
			}
		}
		if total != e.Count {
			return fmt.Errorf("core: edge %d segments hold %d labels, count is %d", ei, total, e.Count)
		}
	}
	return nil
}
