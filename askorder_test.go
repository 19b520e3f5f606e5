package wet_test

// The two facts a backward slice's label asks lean on: a segment's Start is
// the number of elements before it, however the trace was opened, and an
// execution has at most one source per operand, which lets an ask stop at
// the first in-edge of an operand that names it.

import (
	"bytes"
	"fmt"
	"testing"

	"wet"
	"wet/internal/core"
	"wet/internal/corpus"
)

// segmentedViews returns name's trace at epochTS as built, and reopened
// eager, lazy, salvaged and through a corpus.
func segmentedViews(t *testing.T, name string, epochTS uint32) map[string]*wet.Trace {
	t.Helper()
	built := runWorkload(t, name, wet.WithEpochTS(epochTS))
	data := saveBytes(t, built)
	views := map[string]*wet.Trace{"built": built}
	for mode, opts := range map[string][]wet.OpenOption{"eager": nil, "lazy": {wet.WithLazy()}, "salvaged": {wet.WithSalvage()}} {
		tr, _, err := wet.Open(bytes.NewReader(data), opts...)
		if err != nil {
			t.Fatalf("%s/%d %s: %v", name, epochTS, mode, err)
		}
		views[mode] = tr
	}
	entry, err := corpus.New(16<<10).Add(name, data)
	if err != nil {
		t.Fatal(err)
	}
	views["corpus"] = entry.Trace
	return views
}

// TestSegmentStartsAreSums: every segment's Start is the sum of N over the
// segments before it in its list, on every view of the nine workloads at
// EpochTS 256 and 2048.
func TestSegmentStartsAreSums(t *testing.T) {
	multi := 0 // lists of more than one segment
	for _, wl := range wet.Workloads() {
		for _, epochTS := range []uint32{1 << 8, 1 << 11} {
			for mode, tr := range segmentedViews(t, wl.Name, epochTS) {
				id := fmt.Sprintf("%s/%d %s", wl.Name, epochTS, mode)
				checkLabels := func(what string, segs []*core.LabelSeg) {
					sum := 0
					for i, sg := range segs {
						if sg.Start != sum {
							t.Fatalf("%s: %s segment %d starts at %d, %d elements precede it", id, what, i, sg.Start, sum)
						}
						sum += sg.N
					}
					if len(segs) > 1 {
						multi++
					}
				}
				w := tr.WET()
				for _, n := range w.Nodes {
					checkLabels(fmt.Sprintf("node %d ts", n.ID), n.TSSegs)
					for gi, g := range n.Groups {
						checkLabels(fmt.Sprintf("node %d group %d pattern", n.ID, gi), g.PatSegs)
						for mi, segs := range g.UValSegs {
							checkLabels(fmt.Sprintf("node %d group %d uvals[%d]", n.ID, gi, mi), segs)
						}
					}
				}
				for ei, e := range w.Edges {
					sum := 0
					for i, sg := range e.Segs {
						if sg.Start != sum {
							t.Fatalf("%s: edge %d segment %d starts at %d, %d labels precede it", id, ei, i, sg.Start, sum)
						}
						sum += sg.N
					}
					if len(e.Segs) > 1 {
						multi++
					}
				}
			}
		}
	}
	if multi == 0 {
		t.Fatal("no list of more than one segment checked")
	}
	t.Logf("%d lists of more than one segment", multi)
}

// TestOneSourcePerOperand: a position's in-edges list each operand's edges
// together, and on tier-1 labels of the nine workloads at most one edge of
// an operand names each execution (an inferable edge names every one).
func TestOneSourcePerOperand(t *testing.T) {
	for _, wl := range wet.Workloads() {
		w := runWorkload(t, wl.Name).WET()
		asked := 0
		for _, n := range w.Nodes {
			named := make([]uint8, n.Execs)
			for pos, in := range n.InEdges {
				seen := map[int]bool{}
				for i, ei := range in {
					e := w.Edges[ei]
					if i > 0 && e.OpIdx == w.Edges[in[i-1]].OpIdx {
						continue
					}
					if seen[e.OpIdx] {
						t.Fatalf("%s: node %d position %d lists operand %d's in-edges apart", wl.Name, n.ID, pos, e.OpIdx)
					}
					seen[e.OpIdx] = true
					clear(named)
					for _, ej := range in[i:] {
						if f := w.Edges[ej]; f.OpIdx == e.OpIdx {
							nameExecs(w, f, named)
							asked++
						}
					}
					for ord, k := range named {
						if k > 1 {
							t.Fatalf("%s: node %d position %d operand %d: %d in-edges name execution %d", wl.Name, n.ID, pos, e.OpIdx, k, ord)
						}
					}
				}
			}
		}
		if asked == 0 {
			t.Fatalf("%s: no in-edge checked", wl.Name)
		}
	}
}

// nameExecs counts, per execution of e's destination node, whether e's
// tier-1 labels name it.
func nameExecs(w *core.WET, e *core.Edge, named []uint8) {
	if e.Inferable {
		for ord := range named {
			named[ord]++
		}
		return
	}
	dst, _ := w.EdgeLabels(e, core.Tier1)
	for range dst.Len() {
		named[dst.Next()]++
	}
}
