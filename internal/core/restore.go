package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"wet/internal/interp"
)

// RestoreNode rebuilds the static side of a WET node (statement list,
// positions, value groups) for a path, as deserializers need: the dynamic
// labels are attached afterwards. It is the builder's constructor, newNode.
func RestoreNode(st *interp.Static, id, fn int, pathID int64) (*Node, error) {
	return newNode(st, id, fn, pathID)
}

// RestoreUniqueKeys records the unique-input-tuple count of a deserialized
// group, whose tuples are not persisted.
func (g *Group) RestoreUniqueKeys(n int) {
	g.restoredKeys = n
}

// RestoreIndexes rebuilds the derived indexes (statement occurrences and
// edge adjacency) of a deserialized WET and marks it frozen.
func (w *WET) RestoreIndexes(rep *SizeReport) {
	w.StmtOcc = make([][]StmtRef, len(w.Prog.Stmts))
	fill(w.StmtOcc, func(emit func(int, StmtRef)) {
		for _, n := range w.Nodes {
			for pos, s := range n.Stmts {
				emit(s.ID, StmtRef{Node: n.ID, Pos: pos})
			}
		}
	})
	w.indexEdges()
	w.frozen = true
	w.report = rep
	if rep != nil {
		// Checkpoint indexes are rebuilt by stream loading, not persisted;
		// refresh the report's view of their cost.
		rep.CheckpointBytes = w.checkpointBytes()
	}
}

// indexEdges gives every node its InEdges (orderInEdges) and OutEdges lists.
func (w *WET) indexEdges() {
	base := make([]int, len(w.Nodes)+1) // each node's first position, flat
	for i, n := range w.Nodes {
		base[i+1] = base[i] + len(n.Stmts)
	}
	npos := base[len(w.Nodes)]
	adj := make([][]int, 2*npos) // in-lists, then out-lists
	fill(adj, func(emit func(int, int)) {
		for i, e := range w.Edges {
			emit(base[e.DstNode]+e.DstPos, i)
			emit(npos+base[e.SrcNode]+e.SrcPos, i)
		}
	})
	in, out := adj[:npos:npos], adj[npos:]
	for i, n := range w.Nodes {
		n.InEdges, n.OutEdges = in[base[i]:base[i+1]:base[i+1]], out[base[i]:base[i+1]:base[i+1]]
	}
	w.orderInEdges()
}

// orderInEdges sorts each position's in-edges into backward-ask order: by
// operand (CD last); within one, the inferable edge first, budget-dropped
// ones last, the rest by Count descending, then index. An execution has at
// most one source per operand, so an ask stops at the first that names it.
func (w *WET) orderInEdges() {
	key := func(e *Edge) uint64 { // operand, rank, then Count descending
		rank := uint64(1)
		if e.Inferable {
			rank = 0
		} else if e.Dropped {
			rank = 2
		}
		return uint64(uint16(e.OpIdx))<<48 | rank<<32 | uint64(math.MaxUint32-uint32(e.Count))
	}
	byKey := func(a, b int) int { return cmp.Or(cmp.Compare(key(w.Edges[a]), key(w.Edges[b])), cmp.Compare(a, b)) }
	for _, n := range w.Nodes {
		for _, in := range n.InEdges {
			if len(in) > 1 {
				slices.SortFunc(in, byKey)
			}
		}
	}
}

// fill appends every item each emits to lists[key], in emission order. It
// runs each twice, to count and then to fill capacity-exact windows of one
// array, so no list regrows; a list with no items stays nil.
func fill[T any](lists [][]T, each func(emit func(key int, item T))) {
	counts := make([]int32, len(lists))
	n := 0
	each(func(k int, _ T) { counts[k]++; n++ })
	backing := make([]T, n)
	for k, c := range counts {
		if c > 0 {
			lists[k], backing = backing[:0:c], backing[c:]
		}
	}
	each(func(k int, v T) { lists[k] = append(lists[k], v) })
}

// SanitizeSalvaged repairs the invariants RestoreIndexes and the query
// layer rely on after a salvage load dropped node records: control-flow
// successor/predecessor lists may point at nodes past the surviving prefix
// (the trace walker indexes w.Nodes by these entries directly), and the
// first/last node pointers may be gone. Call it on a WET holding the
// salvaged node/edge prefix, before RestoreIndexes. It returns a human
// readable line per repair applied.
func (w *WET) SanitizeSalvaged() []string {
	var adj []string
	n := len(w.Nodes)
	for _, node := range w.Nodes {
		node.CFNext = dropOutOfRange(node.CFNext, n)
		node.CFPrev = dropOutOfRange(node.CFPrev, n)
	}
	if w.FirstNode < 0 || w.FirstNode >= n {
		adj = append(adj, fmt.Sprintf("first node %d not recovered; reset to 0", w.FirstNode))
		w.FirstNode = 0
	}
	if w.LastNode < 0 || w.LastNode >= n {
		adj = append(adj, fmt.Sprintf("last node %d not recovered; reset to %d", w.LastNode, n-1))
		w.LastNode = n - 1
	}
	return adj
}

func dropOutOfRange(s []int, n int) []int {
	out := s[:0]
	for _, v := range s {
		if v >= 0 && v < n {
			out = append(out, v)
		}
	}
	return out
}
