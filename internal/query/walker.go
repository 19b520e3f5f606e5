// Package query implements the paper's §2/§5.2 queries over a WET:
// control-flow trace extraction (forward and backward, from any point),
// per-instruction load value traces, per-instruction load/store address
// traces, and backward/forward WET slices. Every query runs against either
// tier-1 (customized-compressed) or tier-2 (fully compressed) labels.
package query

import (
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
	wins []*core.Window // by node, placed on first touch (nil in InstanceOfTS)
	buf  []uint32       // the run of the nodes a search merely reads

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
	return &Walker{w: w, tier: tier, wins: make([]*core.Window, len(w.Nodes)), Node: -1}
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
		if wk.wins[c] == nil {
			h := wk.w.TSWindow(wk.w.Nodes[c], wk.tier, nil)
			wk.wins[c] = &h
		}
		if ord := wk.wins[c].Find(target, target, back); ord >= 0 {
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
// walker holds no window for is read through a scratch window, kept only if
// the node executed at t (and the walker keeps windows).
func (wk *Walker) lookup(c int, t uint32, back bool) int {
	if wk.wins != nil && wk.wins[c] != nil {
		return wk.wins[c].Find(t, t, back)
	}
	if wk.buf == nil {
		wk.buf = make([]uint32, 0, core.WalkChunk+1)
	}
	h := wk.w.TSWindow(wk.w.Nodes[c], wk.tier, wk.buf[:0])
	ord := h.Find(t, t, back)
	if ord >= 0 && wk.wins != nil {
		kept := h
		wk.wins[c], wk.buf = &kept, nil
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

// ExtractCF walks the whole control-flow trace in the given direction,
// invoking emit for every executed statement (in per-node static order; the
// node-level order is exact execution order). It returns the number of
// statements visited — times 4 bytes, the paper's CF trace size. On a
// lazily loaded WET a deferred-decode failure panics with a
// *stream.DecodeError (this signature has no error slot); use ExtractCFCtx
// to receive it as a typed error instead.
func ExtractCF(w *core.WET, tier core.Tier, forward bool, emit func(stmtID int)) uint64 {
	n, _ := walkCF(w, tier, forward, emit, nil)
	return n
}

// walkCF is the whole-trace walk behind ExtractCF and ExtractCFCtx. stop,
// when non-nil, is polled after every node execution; a true answer ends
// the walk with the statements visited so far.
func walkCF(w *core.WET, tier core.Tier, forward bool, emit func(stmtID int), stop func() bool) (n uint64, stopped bool) {
	wk := NewWalker(w, tier)
	if !forward {
		wk.SeekEnd()
	}
	for wk.step(!forward) {
		stmts := w.Nodes[wk.Node].Stmts
		n += uint64(len(stmts))
		if emit != nil && forward {
			for _, s := range stmts {
				emit(s.ID)
			}
		} else if emit != nil {
			for i := len(stmts) - 1; i >= 0; i-- {
				emit(stmts[i].ID)
			}
		}
		if stop != nil && stop() {
			return n, true
		}
	}
	return n, false
}
