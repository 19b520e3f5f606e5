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
// contains t+1 (paper §2, "Control flow path"). Walkers keep one private
// timestamp cursor per node (created lazily), so sequential walks advance
// each cursor monotonically.
type Walker struct {
	w    *core.WET
	tier core.Tier
	seqs []core.Seq
	buf  [walkChunk]uint32 // reusable batch buffer for findOrdered's scans

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
	return &Walker{w: w, tier: tier, seqs: make([]core.Seq, len(w.Nodes)), Node: -1}
}

// seq returns the walker's timestamp cursor for node. A cursor first touched
// by a backward step is born at the end of its sequence — where the next
// timestamp below the walker's lies, and a checkpoint every stream has for
// free — instead of scanning there from 0.
func (wk *Walker) seq(node int, back bool) core.Seq {
	if wk.seqs[node] == nil {
		s := wk.w.TSSeq(wk.w.Nodes[node], wk.tier)
		if back {
			seqSeek(s, s.Len())
		}
		wk.seqs[node] = s
	}
	return wk.seqs[node]
}

// TS returns the timestamp of the current node execution (0 before start).
func (wk *Walker) TS() uint32 { return wk.ts }

// walkChunk caps the batch width of findOrdered's long scans: one batched
// decode replaces walkChunk interface-dispatched single steps (and, on a
// segmented trace, walkChunk part lookups per federated cursor), while the
// overshoot a chunk can run past its target stays within one seek of the
// checkpoint spacing.
const walkChunk = 64

// findOrdered locates target in the strictly increasing sequence s, scanning
// from wherever the cursor sits, and returns the element's index or -1. The
// cursor ends exactly where a single-step scan would leave it: just past a
// match, or before the first value above the target — sequential walks then
// find the next target adjacent, in either direction. The two directions
// are symmetric: the adjacent element is probed singly (the hot case), and
// a longer scan decodes in batches through buf that double from 2 up to
// walkChunk, so what a batch overshoots — and a seek then steps back over —
// is bounded by the distance the scan had to travel anyway.
func findOrdered(s core.Seq, target uint32, buf []uint32) int {
	if s.Pos() > 0 {
		// The cursor may sit beyond the target (e.g. after a backward walk).
		v := s.Prev()
		if v == target {
			s.Next()
			return s.Pos() - 1
		}
		if v > target {
			return rewindOrdered(s, target, buf)
		}
		s.Next()
	}
	if s.Pos() >= s.Len() {
		return -1
	}
	v := s.Next()
	if v == target {
		return s.Pos() - 1
	}
	if v > target {
		s.Prev()
		return -1
	}
	for chunk := 2; s.Pos() < s.Len(); chunk = min(2*chunk, len(buf)) {
		start := s.Pos()
		n := core.SeqNextN(s, buf[:chunk])
		for i := 0; i < n; i++ {
			if v := buf[i]; v >= target {
				if v == target {
					seqSeek(s, start+i+1)
					return start + i
				}
				seqSeek(s, start+i)
				return -1
			}
		}
	}
	return -1
}

// rewindOrdered is findOrdered's backward half, entered with the cursor just
// before a value known to exceed the target (as does every value behind
// it): probe the element below, then scan back in chunks until the target or
// the first smaller value. Strict monotonicity lets a smaller value conclude
// -1 outright — the element just above it was already seen to exceed the
// target.
func rewindOrdered(s core.Seq, target uint32, buf []uint32) int {
	if s.Pos() == 0 {
		return -1
	}
	if v := s.Prev(); v <= target {
		s.Next()
		if v == target {
			return s.Pos() - 1
		}
		return -1
	}
	for chunk := 2; s.Pos() > 0; chunk = min(2*chunk, len(buf)) {
		start := s.Pos()
		n := core.SeqPrevN(s, buf[:chunk])
		for i := 0; i < n; i++ {
			if v := buf[i]; v <= target {
				// buf[i] sits at start-1-i; leave the cursor just past it.
				seqSeek(s, start-i)
				if v == target {
					return start - 1 - i
				}
				return -1
			}
		}
	}
	return -1
}

// seqSeek repositions s so the next Next() reads element i, via the Seeker
// fast path when the sequence has one.
func seqSeek(s core.Seq, i int) {
	if sk, ok := s.(core.Seeker); ok {
		sk.Seek(i)
		return
	}
	for s.Pos() > i {
		s.Prev()
	}
	for s.Pos() < i {
		s.Next()
	}
}

// Forward advances to the node executed at ts+1. It returns false at the
// end of the trace.
func (wk *Walker) Forward() bool { return wk.step(false) }

// Backward retreats to the node executed at ts-1. It returns false at the
// start of the trace.
func (wk *Walker) Backward() bool { return wk.step(true) }

// step moves one node execution in the given direction: the node holding
// the adjacent timestamp is a CF neighbour of the current one, found by
// probing each neighbour's timestamp cursor.
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
		if wk.landOn(c, target, back) {
			return true
		}
	}
	// Fall back to a global scan (starting mid-trace at an arbitrary point).
	for c := range wk.w.Nodes {
		if wk.landOn(c, target, back) {
			return true
		}
	}
	return false
}

// landOn makes node the current one if it executed at timestamp target.
func (wk *Walker) landOn(node int, target uint32, back bool) bool {
	ord := findOrdered(wk.seq(node, back), target, wk.buf[:])
	if ord < 0 {
		return false
	}
	wk.Node, wk.Ord, wk.ts = node, ord, target
	return true
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
	defer recoverTyped(&err)
	if t < 1 || t > wk.w.Time {
		return fmt.Errorf("query: timestamp %d outside [1,%d]", t, wk.w.Time)
	}
	for c := range wk.w.Nodes {
		if wk.landOn(c, t, false) {
			return nil
		}
	}
	return fmt.Errorf("query: timestamp %d not found", t)
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
