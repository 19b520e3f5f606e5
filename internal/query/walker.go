// Package query implements the paper's §2/§5.2 queries over a WET:
// control-flow trace extraction (forward and backward, from any point),
// per-instruction load value traces, per-instruction load/store address
// traces, and backward/forward WET slices. Every query runs against either
// tier-1 (customized-compressed) or tier-2 (fully compressed) labels.
package query

import (
	"context"
	"fmt"

	"wet/internal/core"
)

// Walker reconstructs the control flow trace from node timestamps: the node
// executed at time t+1 is the CF successor whose timestamp sequence
// contains t+1 (paper §2, "Control flow path"). A walker keeps a
// core.Window of decoded timestamps for each node it lands on or probes, so
// a step compares each CF neighbour's buffered timestamps with t±1 instead
// of stepping a cursor per candidate.
type Walker struct {
	w    *core.WET
	tier core.Tier
	wins *winTable[core.Window] // by node, placed on first touch: its own, or its query's

	// Node/Ord identify the current node execution; Node < 0 before the
	// first step.
	Node int
	Ord  int
	ts   uint32
}

// NewWalker returns a walker positioned before the start of the trace.
// Every cursor a walker steps is its own (spawned from the WET's immutable
// streams), so any number of walkers — and any other queries — may run
// over one frozen WET concurrently; a single walker is confined to one
// goroutine.
func NewWalker(w *core.WET, tier core.Tier) *Walker {
	wins := new(winTable[core.Window])
	wins.size(len(w.Nodes))
	return &Walker{w: w, tier: tier, wins: wins, Node: -1}
}

// walker returns a walker over q's node windows, before the start of the
// trace.
func (q *qctx) walker() Walker {
	return Walker{w: q.w, tier: q.tier, wins: &q.nodes, Node: -1}
}

// TS returns the timestamp of the current node execution (0 before start).
func (wk *Walker) TS() uint32 { return wk.ts }

// Forward advances to the node executed at ts+1. It returns false at the
// end of the trace.
func (wk *Walker) Forward() bool { return wk.step(false) }

// Backward retreats to the node executed at ts-1. It returns false at the
// start of the trace.
func (wk *Walker) Backward() bool { return wk.step(true) }

// step moves one node execution in the given direction: the node holding
// the adjacent timestamp is a CF neighbour of the current one, found by
// comparing each neighbour's window with it.
func (wk *Walker) step(back bool) bool {
	target := wk.ts + 1
	if back {
		target = wk.ts - 1
	}
	if target < 1 || target > wk.w.Time {
		return false
	}
	var cands []int
	switch {
	case wk.Node >= 0 && back:
		cands = wk.w.Nodes[wk.Node].CFPrev
	case wk.Node >= 0:
		cands = wk.w.Nodes[wk.Node].CFNext
	case back:
		cands = []int{wk.w.LastNode}
	default:
		cands = []int{wk.w.FirstNode}
	}
	for _, c := range cands {
		h := wk.wins.slot[c]
		if h == nil {
			h = wk.wins.put(c)
			h.Reuse(wk.w.TSWindow(wk.w.Nodes[c], wk.tier))
		}
		if ord := h.Find(target, target, back); ord >= 0 {
			wk.Node, wk.Ord, wk.ts = c, ord, target
			return true
		}
	}
	// Fall back to a global search (starting mid-trace at an arbitrary point).
	return wk.search(target, back)
}

// search makes the node that executed at t the current one.
func (wk *Walker) search(t uint32, back bool) bool {
	for c := range wk.w.Nodes {
		if ord := wk.lookup(c, t, back); ord >= 0 {
			wk.Node, wk.Ord, wk.ts = c, ord, t
			return true
		}
	}
	return false
}

// lookup returns the ordinal of node c's execution at t, or -1. A node the
// walker holds no window for is read through the spare window, kept only if
// the node executed at t.
func (wk *Walker) lookup(c int, t uint32, back bool) int {
	if h := wk.wins.slot[c]; h != nil {
		return h.Find(t, t, back)
	}
	h := wk.wins.spare()
	h.Reuse(wk.w.TSWindow(wk.w.Nodes[c], wk.tier))
	ord := h.Find(t, t, back)
	if ord >= 0 {
		wk.wins.put(c)
	}
	return ord
}

// SeekEnd positions the walker after the last execution, ready for a
// backward walk.
func (wk *Walker) SeekEnd() {
	wk.Node = -1
	wk.Ord = 0
	wk.ts = wk.w.Time + 1
}

// SeekStart positions the walker before the first execution.
func (wk *Walker) SeekStart() {
	wk.Node = -1
	wk.Ord = 0
	wk.ts = 0
}

// StartAt positions the walker on the node execution holding timestamp t.
// Deferred-decode failures surface as a *stream.DecodeError, not a panic.
func (wk *Walker) StartAt(t uint32) (err error) {
	defer core.RecoverTyped(&err)
	if t < 1 || t > wk.w.Time {
		return fmt.Errorf("query: timestamp %d outside [1,%d]", t, wk.w.Time)
	}
	if !wk.search(t, false) {
		return fmt.Errorf("query: timestamp %d not found", t)
	}
	return nil
}

// walkCF walks the control-flow trace in the given direction until it ends
// or limit statements are emitted, and returns the statements emitted. It
// polls ctx every ctxCheckMask+1 node steps and stops with its cause.
func (q *qctx) walkCF(ctx context.Context, forward bool, limit uint64, emit func(stmtID int)) (n uint64, err error) {
	w, wk := q.w, q.walker()
	if !forward {
		wk.SeekEnd()
	}
	for steps := uint64(1); n < limit && wk.step(!forward); steps++ {
		stmts := w.Nodes[wk.Node].Stmts
		k := int(min(uint64(len(stmts)), limit-n))
		n += uint64(k)
		if emit != nil && forward {
			for _, s := range stmts[:k] {
				emit(s.ID)
			}
		} else if emit != nil {
			for i := len(stmts) - 1; i >= len(stmts)-k; i-- {
				emit(stmts[i].ID)
			}
		}
		if steps&ctxCheckMask == 0 && ctx.Err() != nil {
			return n, context.Cause(ctx)
		}
	}
	return n, nil
}
