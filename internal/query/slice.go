package query

import (
	"fmt"

	"wet/internal/core"
)

// Instance names one dynamic statement instance in WET coordinates: the
// Ord-th execution of node Node, statement position Pos.
type Instance struct {
	Node, Pos, Ord int
}

// SliceResult is the set of instances reachable along dependence edges from
// the criterion, i.e. the paper's WET slice: it carries control flow (via
// node identity), values (readable via WET.Value), and the dependence
// structure itself.
type SliceResult struct {
	Criterion Instance
	Instances []Instance
	// Edges counts dependence edge instances traversed.
	Edges int
	// PrunedCD counts CD edges skipped without label resolution because the
	// static oracle refuted them (see SliceOptions.CDOracle).
	PrunedCD int
}

// CDOracle answers whether block blk of function fn is statically control
// dependent on the branch ending block branchBlk. sanalysis.Analysis
// satisfies it; query takes the interface so the dependence stays one-way.
type CDOracle interface {
	IsControlDep(fn, branchBlk, blk int) bool
}

// SliceOptions tunes a slice traversal.
type SliceOptions struct {
	// MaxInstances bounds the work (0 = unbounded).
	MaxInstances int
	// CDOracle, when non-nil, prunes CD edges that no static control
	// dependence supports before their labels are resolved. On a certified
	// WET every CD edge is statically supported, so pruning only saves the
	// label-cursor work for cross-function edges (which static control
	// dependence never spans); on an uncertified or damaged WET it keeps
	// semantically impossible control edges out of the slice.
	CDOracle CDOracle
}

// cdPruned reports whether opts' oracle refutes CD edge e: the source must
// end a branch block in the same function as the destination, and that pair
// must be a static control dependence.
func (o SliceOptions) cdPruned(w *core.WET, e *core.Edge) bool {
	if o.CDOracle == nil || e.Kind != core.CD {
		return false
	}
	src := w.Nodes[e.SrcNode].Stmts[e.SrcPos]
	dst := w.Nodes[e.DstNode].Stmts[e.DstPos]
	return src.Fn != dst.Fn || !o.CDOracle.IsControlDep(src.Fn, src.Blk, dst.Blk)
}

// resolveSrc finds the source ordinal of edge e for destination ordinal
// dord, or -1 when the edge did not fire at that execution. It reads the
// edge's labels through q's cached cursor pair, so repeated resolutions of
// the same edge (slicing worklists) reuse one cursor.
func resolveSrc(q *qctx, e *core.Edge, dord int) int {
	w := q.w
	if e.Inferable {
		if dord < w.Nodes[e.DstNode].Execs {
			return dord
		}
		return -1
	}
	dseq, sseq := q.edgeLabels(e)
	target := uint32(dord)
	// Destination ordinals are strictly increasing. Tier-1 storage allows a
	// binary search; compressed streams are scanned from the cursor's
	// current position in the right direction.
	if dra, ok := dseq.(core.RandomAccess); ok {
		sra := sseq.(core.RandomAccess)
		lo, hi := 0, dseq.Len()
		for lo < hi {
			mid := (lo + hi) / 2
			if dra.At(mid) < target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < dseq.Len() && dra.At(lo) == target {
			return int(sra.At(lo))
		}
		return -1
	}
	if i := findOrdered(dseq, target, q.buf[:]); i >= 0 {
		return int(core.SeqAt(sseq, i))
	}
	return -1
}

// BackwardSlice computes the backward WET slice of the given instance:
// every instance whose value or control outcome contributed (transitively)
// to it, via DD and CD edges. maxInstances bounds the work (0 = unbounded).
func BackwardSlice(w *core.WET, tier core.Tier, from Instance, maxInstances int) (*SliceResult, error) {
	return BackwardSliceOpts(w, tier, from, SliceOptions{MaxInstances: maxInstances})
}

// BackwardSliceOpts is BackwardSlice with full options, including the
// static-CD pruning oracle. Deferred-decode failures on a lazily loaded WET
// surface as a *stream.DecodeError, not a panic.
func BackwardSliceOpts(w *core.WET, tier core.Tier, from Instance, opts SliceOptions) (res *SliceResult, err error) {
	defer recoverTyped(&err)
	if err := checkInstance(w, from); err != nil {
		return nil, err
	}
	q := newCtx(w, tier)
	res = &SliceResult{Criterion: from}
	seen := map[uint64]bool{pack(from): true}
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
			sord := resolveSrc(q, e, cur.Ord)
			if sord < 0 {
				continue
			}
			res.Edges++
			src := Instance{Node: e.SrcNode, Pos: e.SrcPos, Ord: sord}
			if k := pack(src); !seen[k] {
				seen[k] = true
				work = append(work, src)
			}
		}
	}
	return res, nil
}

// pack encodes an instance as a map key (nodes < 2^16, positions < 2^16,
// ordinals < 2^32 — comfortably above anything a WET of this scale holds).
func pack(in Instance) uint64 {
	return uint64(in.Node)<<48 | uint64(in.Pos)<<32 | uint64(uint32(in.Ord))
}

// ForwardSlice computes the forward WET slice: every instance whose
// computation was influenced by the given instance. Deferred-decode
// failures surface as a *stream.DecodeError, not a panic.
func ForwardSlice(w *core.WET, tier core.Tier, from Instance, maxInstances int) (res *SliceResult, err error) {
	defer recoverTyped(&err)
	if err := checkInstance(w, from); err != nil {
		return nil, err
	}
	q := newCtx(w, tier)
	res = &SliceResult{Criterion: from}
	seen := map[uint64]bool{pack(from): true}
	work := []Instance{from}
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
			// Find every destination execution fed by source ordinal
			// cur.Ord (a value can be used many times).
			if e.Inferable {
				if cur.Ord < w.Nodes[e.DstNode].Execs {
					res.Edges++
					dst := Instance{Node: e.DstNode, Pos: e.DstPos, Ord: cur.Ord}
					if k := pack(dst); !seen[k] {
						seen[k] = true
						work = append(work, dst)
					}
				}
				continue
			}
			// Source ordinals are unordered (a value can be used many times,
			// in any interleaving), so the whole label sequence is scanned —
			// batched, draining the cached cursor in chunks instead of one
			// checkpointed SeqAt per element.
			dseq, sseq := q.edgeLabels(e)
			seqSeek(sseq, 0)
			buf := q.buf[:]
			for base := 0; base < sseq.Len(); {
				got := core.SeqNextN(sseq, buf)
				for i := 0; i < got; i++ {
					if int(buf[i]) != cur.Ord {
						continue
					}
					res.Edges++
					dst := Instance{Node: e.DstNode, Pos: e.DstPos, Ord: int(core.SeqAt(dseq, base+i))}
					if k := pack(dst); !seen[k] {
						seen[k] = true
						work = append(work, dst)
					}
				}
				base += got
			}
		}
	}
	return res, nil
}

func checkInstance(w *core.WET, in Instance) error {
	if in.Node < 0 || in.Node >= len(w.Nodes) {
		return fmt.Errorf("query: node %d out of range", in.Node)
	}
	n := w.Nodes[in.Node]
	if in.Pos < 0 || in.Pos >= len(n.Stmts) {
		return fmt.Errorf("query: position %d out of range in node %d", in.Pos, in.Node)
	}
	if in.Ord < 0 || in.Ord >= n.Execs {
		return fmt.Errorf("query: ordinal %d out of range (node %d ran %d times)", in.Ord, in.Node, n.Execs)
	}
	return nil
}

// InstanceOfTS locates the instance of a static statement executed at the
// node execution holding timestamp ts (a convenience for picking slicing
// criteria from a point in time). Node timestamps only grow, so each
// occurrence is searched in batches up to the first timestamp above ts. A
// statement id outside the program returns a *StmtError.
func InstanceOfTS(w *core.WET, tier core.Tier, stmtID int, ts uint32) (in Instance, err error) {
	defer recoverTyped(&err)
	if err := checkStmt(w, stmtID); err != nil {
		return Instance{}, err
	}
	var buf [walkChunk]uint32
	for _, ref := range w.StmtOcc[stmtID] {
		if ord := findOrdered(w.TSSeq(w.Nodes[ref.Node], tier), ts, buf[:]); ord >= 0 {
			return Instance{Node: ref.Node, Pos: ref.Pos, Ord: ord}, nil
		}
	}
	return Instance{}, fmt.Errorf("query: statement %d did not execute at ts %d", stmtID, ts)
}

// Chop computes the intersection of the forward slice of `from` and the
// backward slice of `to`: the dynamic instances through which `from`
// influenced `to`. It answers the classic debugging question "how did THIS
// value reach THAT one?" using only the WET's dependence labels.
func Chop(w *core.WET, tier core.Tier, from, to Instance, maxInstances int) (*SliceResult, error) {
	fwd, err := ForwardSlice(w, tier, from, maxInstances)
	if err != nil {
		return nil, err
	}
	inFwd := make(map[uint64]bool, len(fwd.Instances))
	for _, in := range fwd.Instances {
		inFwd[pack(in)] = true
	}
	bwd, err := BackwardSlice(w, tier, to, maxInstances)
	if err != nil {
		return nil, err
	}
	res := &SliceResult{Criterion: to}
	for _, in := range bwd.Instances {
		if inFwd[pack(in)] {
			res.Instances = append(res.Instances, in)
		}
	}
	res.Edges = fwd.Edges + bwd.Edges
	return res, nil
}

// DependenceChain walks a single dependence chain backwards from an
// instance, at each step following the data dependence of the given operand
// index (or the control dependence when opIdx < 0 yields no DD edge),
// recording up to maxLen instances. It is the paper's "chains of data
// dependences ... can all be easily found by traversing the WET" query.
func DependenceChain(w *core.WET, tier core.Tier, from Instance, opIdx, maxLen int) (chain []Instance, err error) {
	defer recoverTyped(&err)
	if err := checkInstance(w, from); err != nil {
		return nil, err
	}
	q := newCtx(w, tier)
	chain = []Instance{from}
	cur := from
	for len(chain) < maxLen {
		n := w.Nodes[cur.Node]
		next := Instance{Node: -1}
		for _, ei := range n.InEdges[cur.Pos] {
			e := w.Edges[ei]
			if e.Kind != core.DD || e.OpIdx != opIdx {
				continue
			}
			if sord := resolveSrc(q, e, cur.Ord); sord >= 0 {
				next = Instance{Node: e.SrcNode, Pos: e.SrcPos, Ord: sord}
				break
			}
		}
		if next.Node < 0 {
			break
		}
		chain = append(chain, next)
		cur = next
		opIdx = 0 // follow the first operand onward
	}
	return chain, nil
}
