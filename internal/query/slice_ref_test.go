package query

// The worklist slicers the sweep in slice.go replaced, kept as the reference
// the differential test compares it against: a LIFO stack of instances, a
// map keyed by packed instance for the visited set, one cached cursor pair
// per edge in a map, a single-step label scan + one SeqAt per resolved label, and a
// forward slicer that rescans an out-edge's whole source-label stream for
// every popped instance.

import "wet/internal/core"

type refCtx struct {
	w     *core.WET
	tier  core.Tier
	edges map[*core.Edge][2]core.Seq
	buf   [core.WalkChunk]uint32
}

func (q *refCtx) edgeLabels(e *core.Edge) (dst, src core.Seq) {
	if p, ok := q.edges[e]; ok {
		return p[0], p[1]
	}
	d, s := q.w.EdgeLabels(e, q.tier)
	if q.edges == nil {
		q.edges = map[*core.Edge][2]core.Seq{}
	}
	q.edges[e] = [2]core.Seq{d, s}
	return d, s
}

// refResolveSrc finds the source ordinal of edge e for destination ordinal
// dord, or -1 when the edge did not fire at that execution.
func refResolveSrc(q *refCtx, e *core.Edge, dord int) int {
	if e.Inferable {
		if dord < q.w.Nodes[e.DstNode].Execs {
			return dord
		}
		return -1
	}
	dseq, sseq := q.edgeLabels(e)
	target := uint32(dord)
	// Single steps from wherever the last ask left the cursor, to the first
	// label not below the target.
	for dseq.Pos() > 0 {
		if dseq.Prev() < target {
			dseq.Next()
			break
		}
	}
	for dseq.Pos() < dseq.Len() {
		if dseq.Next() >= target {
			dseq.Prev()
			break
		}
	}
	if i := dseq.Pos(); i < dseq.Len() && core.SeqAt(dseq, i) == target {
		return int(core.SeqAt(sseq, i))
	}
	return -1
}

// refPack is the worklists' map key. It aliases once a WET has 2^16 nodes or
// a node 2^16 positions, which none of the reference's inputs do.
func refPack(in Instance) uint64 {
	return uint64(in.Node)<<48 | uint64(in.Pos)<<32 | uint64(uint32(in.Ord))
}

func refBackwardSlice(w *core.WET, tier core.Tier, from Instance, opts SliceOptions) *SliceResult {
	q := &refCtx{w: w, tier: tier}
	res := &SliceResult{Criterion: from}
	seen := map[uint64]bool{refPack(from): true}
	work := []Instance{from}
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		res.Instances = append(res.Instances, cur)
		if opts.MaxInstances > 0 && len(res.Instances) >= opts.MaxInstances {
			break
		}
		n := w.Nodes[cur.Node]
		for _, ei := range n.InEdges[cur.Pos] {
			e := w.Edges[ei]
			if opts.cdPruned(w, e) {
				res.PrunedCD++
				continue
			}
			sord := refResolveSrc(q, e, cur.Ord)
			if sord < 0 {
				continue
			}
			res.Edges++
			src := Instance{Node: e.SrcNode, Pos: e.SrcPos, Ord: sord}
			if k := refPack(src); !seen[k] {
				seen[k] = true
				work = append(work, src)
			}
		}
	}
	return res
}

func refForwardSlice(w *core.WET, tier core.Tier, from Instance, maxInstances int) *SliceResult {
	q := &refCtx{w: w, tier: tier}
	res := &SliceResult{Criterion: from}
	seen := map[uint64]bool{refPack(from): true}
	work := []Instance{from}
	reach := func(dst Instance) {
		res.Edges++
		if k := refPack(dst); !seen[k] {
			seen[k] = true
			work = append(work, dst)
		}
	}
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		res.Instances = append(res.Instances, cur)
		if maxInstances > 0 && len(res.Instances) >= maxInstances {
			break
		}
		n := w.Nodes[cur.Node]
		for _, ei := range n.OutEdges[cur.Pos] {
			e := w.Edges[ei]
			if e.Inferable {
				if cur.Ord < w.Nodes[e.DstNode].Execs {
					reach(Instance{Node: e.DstNode, Pos: e.DstPos, Ord: cur.Ord})
				}
				continue
			}
			dseq, sseq := q.edgeLabels(e)
			sseq.Seek(0)
			buf := q.buf[:]
			for base := 0; base < sseq.Len(); {
				got := sseq.NextN(buf)
				for i := 0; i < got; i++ {
					if int(buf[i]) == cur.Ord {
						reach(Instance{Node: e.DstNode, Pos: e.DstPos, Ord: int(core.SeqAt(dseq, base+i))})
					}
				}
				base += got
			}
		}
	}
	return res
}
