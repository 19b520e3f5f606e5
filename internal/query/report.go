package query

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"wet/internal/core"
)

// HotPath summarizes one Ball–Larus path's execution frequency — the "hot
// program paths" analysis the paper cites as a primary consumer of control
// flow profiles (Larus/Ball-Larus; used for path-sensitive optimization).
type HotPath struct {
	Node     int
	Fn       int
	PathID   int64
	Execs    int
	Stmts    int     // statements per execution
	Coverage float64 // fraction of all dynamic statements spent in this path
}

// HotPaths ranks the WET's path nodes by the dynamic statements they cover
// and returns the top n (all when n <= 0).
func HotPaths(w *core.WET, n int) []HotPath {
	var out []HotPath
	var total uint64
	for _, node := range w.Nodes {
		total += uint64(node.Execs) * uint64(len(node.Stmts))
	}
	for _, node := range w.Nodes {
		hp := HotPath{
			Node: node.ID, Fn: node.Fn, PathID: node.PathID,
			Execs: node.Execs, Stmts: len(node.Stmts),
		}
		if total > 0 {
			hp.Coverage = float64(uint64(node.Execs)*uint64(len(node.Stmts))) / float64(total)
		}
		out = append(out, hp)
	}
	slices.SortFunc(out, func(x, y HotPath) int {
		return cmp.Compare(uint64(y.Execs)*uint64(y.Stmts), uint64(x.Execs)*uint64(x.Stmts))
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// WriteDOT renders a slice result as a Graphviz digraph: one node per
// dynamic instance (labeled with its statement and, when available, its
// value) and one edge per dependence instance traversed during a re-walk of
// the slice, both in (Node, Ord, Pos) order. Deferred-decode failures
// surface as a *stream.DecodeError, not a panic.
func WriteDOT(w *core.WET, tier core.Tier, res *SliceResult, out io.Writer) (err error) {
	defer core.RecoverTyped(&err)
	inSlice := newInstSet(w)
	for _, in := range res.Instances {
		inSlice.add(in.Node, in.Pos, in.Ord, false)
	}
	name := func(in Instance) string {
		return fmt.Sprintf("i%d_%d_%d", in.Node, in.Pos, in.Ord)
	}
	if _, err := fmt.Fprintln(out, "digraph wetslice {"); err != nil {
		return err
	}
	fmt.Fprintln(out, `  rankdir=BT; node [shape=box, fontname="monospace"];`)

	q := newCtx(w, tier)
	inSlice.each(func(in Instance) {
		n := w.Nodes[in.Node]
		s := n.Stmts[in.Pos]
		label := fmt.Sprintf("%s\\nord=%d", s, in.Ord)
		if s.Op.HasDef() && s.Dest >= 0 {
			if vr, err := q.valueReader(n, in.Pos); err == nil {
				if v, ok := vr.at(q, in.Ord); ok {
					label = fmt.Sprintf("%s = %d\\nord=%d", s, v, in.Ord)
				}
			}
		}
		style := ""
		if in == res.Criterion {
			style = ", style=filled, fillcolor=lightgrey"
		}
		fmt.Fprintf(out, "  %s [label=\"%s\"%s];\n", name(in), label, style)
	})
	// Re-resolve the dependence edges among slice members.
	inSlice.each(func(in Instance) {
		for _, ei := range w.Nodes[in.Node].InEdges[in.Pos] {
			e := w.Edges[ei]
			src := Instance{Node: e.SrcNode, Pos: e.SrcPos, Ord: q.srcOrd(ei, in.Ord, 0)}
			if src.Ord < 0 || !inSlice.has(src) {
				continue
			}
			attr := ""
			if e.Kind == core.CD {
				attr = " [style=dashed, label=\"cd\"]"
			}
			fmt.Fprintf(out, "  %s -> %s%s;\n", name(src), name(in), attr)
		}
	})
	_, err = fmt.Fprintln(out, "}")
	return err
}
