package sanalysis

import (
	"container/heap"
	"fmt"

	"wet/internal/core"
	"wet/internal/ir"
)

// Finding is one semantic-verification violation.
type Finding struct {
	Rule Rule   `json:"rule"`
	Msg  string `json:"msg"`
	Node int    `json:"node,omitempty"` // node id, or -1
	Edge int    `json:"edge,omitempty"` // edge index, or -1
	TS   uint32 `json:"ts,omitempty"`   // global timestamp, or 0
}

func (f Finding) String() string {
	s := fmt.Sprintf("%s: %s", f.Rule, f.Msg)
	if f.Node >= 0 {
		s += fmt.Sprintf(" [node %d]", f.Node)
	}
	if f.Edge >= 0 {
		s += fmt.Sprintf(" [edge %d]", f.Edge)
	}
	return s
}

// Report is the result of one VerifyWET run.
type Report struct {
	Findings []Finding `json:"findings"`

	// Coverage counters: how much of the trace the pass certified.
	Nodes       int  `json:"nodes"`
	Edges       int  `json:"edges"`
	Labels      int  `json:"labels"`      // label pairs causality-checked
	Transitions int  `json:"transitions"` // consecutive-timestamp CF checks
	Truncated   bool `json:"truncated,omitempty"`

	// Skipped names the reason semantic verification did not run (set for
	// concurrent traces, whose interleaved control flow the sequential
	// replay rules do not describe). A skipped report has no findings, so
	// OK() holds; callers that print coverage should surface the reason.
	Skipped string `json:"skipped,omitempty"`
}

// OK reports whether the WET passed semantic verification.
func (r *Report) OK() bool { return len(r.Findings) == 0 }

// VerifyOptions configures VerifyWET.
type VerifyOptions struct {
	// Tier selects which representation the verifier walks: Tier1 slice
	// cursors or Tier2 compressed stream cursors. Zero means Tier1.
	Tier core.Tier
	// MaxFindings stops the pass once this many findings accumulate
	// (0 = 256). The report is marked Truncated when the cap is hit.
	MaxFindings int
	// Analysis supplies precomputed static facts; when nil VerifyWET builds
	// them from the WET's own path numbering (w.Static.Paths), so the
	// verification always matches the numbering the trace was built with.
	Analysis *Analysis
}

// verifier carries the walk state of one VerifyWET run.
type verifier struct {
	w    *core.WET
	a    *Analysis
	tier core.Tier
	max  int
	rep  *Report

	// tsAt caches one checkpointed cursor per node for ordinal->timestamp
	// lookups; the merge uses separate fresh cursors.
	tsAt map[int]core.Seq

	// Static path facts per node (from the Ball–Larus decode).
	startBlk, endBlk []int
	endOp            []ir.Op
	pathOK           []bool
}

// VerifyWET certifies a WET against the static semantics of its program:
// every CD edge an instance of a static control dependence with causally
// ordered timestamps, every DD edge's definition a static reaching
// definition of its use, the merged node-timestamp total order taking only
// path-terminating static CF edges and stack-disciplined calls/returns
// through statically enumerable Ball–Larus paths, and every inferable local
// edge certified by static sole-source facts.
//
// The walk touches the trace exclusively through detached sequence cursors
// (TSSeq / EdgeLabels / core.SeqAt) — no label sequence is materialized —
// so at Tier2 it runs directly over the compressed streams; the caller can
// assert that with seek counters attached to w (core.WET.AttachSeekCounters).
func VerifyWET(w *core.WET, opts VerifyOptions) (*Report, error) {
	if opts.Tier == 0 {
		opts.Tier = core.Tier1
	}
	if opts.Tier == core.Tier2 && !w.Frozen() {
		return nil, fmt.Errorf("sanalysis: tier-2 verification requires a frozen WET")
	}
	if w.Conc != nil {
		// A concurrent trace interleaves per-thread control flow in the
		// global timestamp order, so the sequential replay rules (stack
		// discipline, path-terminating CF edges between consecutive
		// timestamps, single-flow reaching definitions) do not apply;
		// running them would report false findings, not verify anything.
		// The concurrency streams have their own structural validator
		// (core.Validate) and semantic consumer (racecheck).
		return &Report{Skipped: "concurrent trace: sequential control-flow replay does not apply"}, nil
	}
	a := opts.Analysis
	if a == nil {
		var err error
		a, err = AnalyzeWithPaths(w.Prog, w.Static.Paths)
		if err != nil {
			return nil, err
		}
	}
	max := opts.MaxFindings
	if max <= 0 {
		max = 256
	}
	v := &verifier{
		w: w, a: a, tier: opts.Tier, max: max,
		rep:  &Report{},
		tsAt: make(map[int]core.Seq, len(w.Nodes)),
	}
	v.decodePaths()
	v.walkOrder()
	v.checkEdges()
	return v.rep, nil
}

func (v *verifier) add(f Finding) bool {
	if len(v.rep.Findings) >= v.max {
		v.rep.Truncated = true
		return false
	}
	v.rep.Findings = append(v.rep.Findings, f)
	return true
}

func (v *verifier) full() bool { return len(v.rep.Findings) >= v.max }

// ts returns the global timestamp of the ord-th execution of node id,
// through the node's cached checkpointed cursor.
func (v *verifier) ts(id int, ord int) uint32 {
	s, ok := v.tsAt[id]
	if !ok {
		s = v.w.TSSeq(v.w.Nodes[id], v.tier)
		v.tsAt[id] = s
	}
	return core.SeqAt(s, ord)
}

// decodePaths certifies every node's path id against the static Ball–Larus
// enumeration (CF004) and records start/end block facts for the CF walk.
func (v *verifier) decodePaths() {
	n := len(v.w.Nodes)
	v.startBlk = make([]int, n)
	v.endBlk = make([]int, n)
	v.endOp = make([]ir.Op, n)
	v.pathOK = make([]bool, n)
	for i, nd := range v.w.Nodes {
		v.rep.Nodes++
		blocks := nd.Blocks
		ok := true
		if nd.Fn < 0 || nd.Fn >= len(v.a.Funcs) {
			v.add(Finding{Rule: RuleCFPath, Node: nd.ID, Edge: -1,
				Msg: fmt.Sprintf("node function index %d out of range", nd.Fn)})
			ok = false
		} else if nd.PathID < 0 || nd.PathID >= v.a.NumPaths(nd.Fn) {
			v.add(Finding{Rule: RuleCFPath, Node: nd.ID, Edge: -1,
				Msg: fmt.Sprintf("path id %d outside the %d static paths of %s", nd.PathID, v.a.NumPaths(nd.Fn), v.fnName(nd.Fn))})
			ok = false
		} else if dec, err := v.a.PathBlocks(nd.Fn, nd.PathID); err != nil {
			v.add(Finding{Rule: RuleCFPath, Node: nd.ID, Edge: -1,
				Msg: fmt.Sprintf("path id %d of %s does not decode: %v", nd.PathID, v.fnName(nd.Fn), err)})
			ok = false
		} else if !intsEqual(dec, blocks) {
			v.add(Finding{Rule: RuleCFPath, Node: nd.ID, Edge: -1,
				Msg: fmt.Sprintf("stored blocks %v disagree with static decode %v of path %d", blocks, dec, nd.PathID)})
			blocks = dec // trust the static decode for the CF walk
		}
		if len(blocks) == 0 {
			ok = false
		}
		v.pathOK[i] = ok
		if ok {
			v.startBlk[i] = blocks[0]
			v.endBlk[i] = blocks[len(blocks)-1]
			v.endOp[i] = v.a.Prog.Funcs[nd.Fn].Blocks[v.endBlk[i]].Term().Op
		}
	}
}

func (v *verifier) fnName(fn int) string {
	if fn >= 0 && fn < len(v.a.Prog.Funcs) {
		return v.a.Prog.Funcs[fn].Name
	}
	return fmt.Sprintf("fn#%d", fn)
}

// tsHeap merges the per-node timestamp cursors into the global order.
type tsEntry struct {
	ts   uint32
	node int
	seq  core.Seq
}
type tsHeap []tsEntry

func (h tsHeap) Len() int            { return len(h) }
func (h tsHeap) Less(i, j int) bool  { return h[i].ts < h[j].ts }
func (h tsHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *tsHeap) Push(x interface{}) { *h = append(*h, x.(tsEntry)) }
func (h *tsHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// walkOrder replays the node-level control flow by k-way merging every
// node's timestamp sequence (fresh detached cursors) and checks that each
// consecutive pair of executions is connected by a statically possible
// transition, with call/return stack discipline.
func (v *verifier) walkOrder() {
	h := &tsHeap{}
	for _, nd := range v.w.Nodes {
		if nd.Execs == 0 {
			continue
		}
		s := v.w.TSSeq(nd, v.tier)
		*h = append(*h, tsEntry{ts: s.Next(), node: nd.ID, seq: s})
	}
	heap.Init(h)

	var stack []cfFrame
	prev := -1
	var expect uint32 = 1
	for h.Len() > 0 && !v.full() {
		e := heap.Pop(h).(tsEntry)
		if e.seq.Pos() < e.seq.Len() {
			heap.Push(h, tsEntry{ts: e.seq.Next(), node: e.node, seq: e.seq})
		}
		if e.ts != expect {
			if !v.add(Finding{Rule: RuleTSOrder, Node: e.node, Edge: -1, TS: e.ts,
				Msg: fmt.Sprintf("timestamp %d out of order: expected %d", e.ts, expect)}) {
				return
			}
			expect = e.ts // resynchronize on the observed clock
		}
		expect++
		cur := e.node

		if prev < 0 {
			// Anchor: timestamp 1 is the entry function's entry path.
			nd := v.w.Nodes[cur]
			if cur != v.w.FirstNode {
				v.add(Finding{Rule: RuleCFAnchor, Node: cur, Edge: -1, TS: e.ts,
					Msg: fmt.Sprintf("timestamp 1 lives on node %d, header says FirstNode %d", cur, v.w.FirstNode)})
			}
			if v.pathOK[cur] && (nd.Fn != v.a.Prog.Entry || v.startBlk[cur] != 0) {
				v.add(Finding{Rule: RuleCFAnchor, Node: cur, Edge: -1, TS: e.ts,
					Msg: fmt.Sprintf("first path starts at %s block %d, want entry %s block 0", v.fnName(nd.Fn), v.startBlk[cur], v.fnName(v.a.Prog.Entry))})
			}
			prev = cur
			continue
		}
		v.checkTransition(prev, cur, e.ts, &stack)
		prev = cur
	}
	if v.full() {
		return
	}
	if expect != v.w.Time+1 {
		v.add(Finding{Rule: RuleTSOrder, Node: -1, Edge: -1,
			Msg: fmt.Sprintf("merged %d timestamps, header says Time=%d", expect-1, v.w.Time)})
	}
	if prev >= 0 {
		if prev != v.w.LastNode {
			v.add(Finding{Rule: RuleCFAnchor, Node: prev, Edge: -1, TS: v.w.Time,
				Msg: fmt.Sprintf("final timestamp lives on node %d, header says LastNode %d", prev, v.w.LastNode)})
		}
		if v.pathOK[prev] && v.endOp[prev] != ir.OpHalt {
			v.add(Finding{Rule: RuleCFAnchor, Node: prev, Edge: -1, TS: v.w.Time,
				Msg: fmt.Sprintf("final path ends with %s, want halt", v.endOp[prev])})
		}
	}
}

// cfFrame is one call-stack entry of the node-level control-flow replay.
type cfFrame struct{ fn, callBlk int }

// checkTransition validates one consecutive-timestamp step prev -> cur.
func (v *verifier) checkTransition(prev, cur int, ts uint32, stack *[]cfFrame) {
	v.rep.Transitions++
	if !v.pathOK[prev] || !v.pathOK[cur] {
		return // already reported as CF004; no reliable facts to check against
	}
	pn, cn := v.w.Nodes[prev], v.w.Nodes[cur]
	u := v.endBlk[prev]
	switch v.endOp[prev] {
	case ir.OpJmp, ir.OpBr:
		// Intra-frame: the transition must take a path-terminating edge
		// u -> startBlk(cur) of the same function.
		if cn.Fn != pn.Fn {
			v.add(Finding{Rule: RuleCFTransition, Node: cur, Edge: -1, TS: ts,
				Msg: fmt.Sprintf("t=%d crosses from %s into %s without a call or return", ts, v.fnName(pn.Fn), v.fnName(cn.Fn))})
			return
		}
		succs := v.a.Prog.Funcs[pn.Fn].Blocks[u].Succs
		legal := false
		for i, s := range succs {
			if s == v.startBlk[cur] && v.a.IsPathTerminatingEdge(pn.Fn, u, i) {
				legal = true
				break
			}
		}
		if !legal {
			v.add(Finding{Rule: RuleCFTransition, Node: cur, Edge: -1, TS: ts,
				Msg: fmt.Sprintf("t=%d: %s block %d -> block %d is not a path-terminating static CF edge", ts, v.fnName(pn.Fn), u, v.startBlk[cur])})
		}
	case ir.OpCall:
		call := v.a.Prog.Funcs[pn.Fn].Blocks[u].Term()
		if cn.Fn != call.Callee || v.startBlk[cur] != 0 {
			v.add(Finding{Rule: RuleCFCallStack, Node: cur, Edge: -1, TS: ts,
				Msg: fmt.Sprintf("t=%d: call to %s enters %s block %d, want its entry block", ts, v.fnName(call.Callee), v.fnName(cn.Fn), v.startBlk[cur])})
		}
		*stack = append(*stack, cfFrame{pn.Fn, u})
	case ir.OpRet:
		if len(*stack) == 0 {
			v.add(Finding{Rule: RuleCFCallStack, Node: cur, Edge: -1, TS: ts,
				Msg: fmt.Sprintf("t=%d: return from %s with an empty call stack", ts, v.fnName(pn.Fn))})
			return
		}
		fr := (*stack)[len(*stack)-1]
		*stack = (*stack)[:len(*stack)-1]
		cont := v.a.Prog.Funcs[fr.fn].Blocks[fr.callBlk].Succs[0]
		if cn.Fn != fr.fn || v.startBlk[cur] != cont {
			v.add(Finding{Rule: RuleCFCallStack, Node: cur, Edge: -1, TS: ts,
				Msg: fmt.Sprintf("t=%d: return resumes %s block %d, want caller %s block %d", ts, v.fnName(cn.Fn), v.startBlk[cur], v.fnName(fr.fn), cont)})
		}
	case ir.OpHalt:
		v.add(Finding{Rule: RuleCFTransition, Node: cur, Edge: -1, TS: ts,
			Msg: fmt.Sprintf("t=%d executes after node %d halted", ts, prev)})
	}
}

// checkEdges certifies every dependence edge against the static facts.
func (v *verifier) checkEdges() {
	for i, e := range v.w.Edges {
		if v.full() {
			return
		}
		v.rep.Edges++
		v.checkEdge(i, e)
	}
}

func (v *verifier) checkEdge(idx int, e *core.Edge) {
	sn, dn := v.w.Nodes[e.SrcNode], v.w.Nodes[e.DstNode]
	if e.SrcPos < 0 || e.SrcPos >= len(sn.Stmts) || e.DstPos < 0 || e.DstPos >= len(dn.Stmts) {
		return // structural validation territory
	}
	src, dst := sn.Stmts[e.SrcPos], dn.Stmts[e.DstPos]

	// (a)/(b): the edge must be an instance of a static dependence.
	order := RuleDDOrder
	switch e.Kind {
	case core.CD:
		order = RuleCDOrder
		switch {
		case src.Op != ir.OpBr:
			v.add(Finding{Rule: RuleCDStatic, Node: e.DstNode, Edge: idx,
				Msg: fmt.Sprintf("CD source [%d]%s is not a branch", src.ID, src)})
		case src.Fn != dst.Fn:
			v.add(Finding{Rule: RuleCDStatic, Node: e.DstNode, Edge: idx,
				Msg: fmt.Sprintf("CD edge crosses from %s into %s; control dependence is intra-function", v.fnName(src.Fn), v.fnName(dst.Fn))})
		case !v.a.IsControlDep(src.Fn, src.Blk, dst.Blk):
			v.add(Finding{Rule: RuleCDStatic, Node: e.DstNode, Edge: idx,
				Msg: fmt.Sprintf("%s block %d is not control dependent on branch block %d", v.fnName(dst.Fn), dst.Blk, src.Blk)})
		}
	case core.DD:
		if e.OpIdx < 0 || e.OpIdx >= v.a.NumDepOperands(dst.ID) {
			v.add(Finding{Rule: RuleDDStatic, Node: e.DstNode, Edge: idx,
				Msg: fmt.Sprintf("operand index %d out of range for [%d]%s", e.OpIdx, dst.ID, dst)})
		} else if !v.a.IsReachingDef(src.ID, dst.ID, e.OpIdx) {
			v.add(Finding{Rule: RuleDDStatic, Node: e.DstNode, Edge: idx,
				Msg: fmt.Sprintf("[%d]%s is not a static reaching definition of operand %d of [%d]%s", src.ID, src, e.OpIdx, dst.ID, dst)})
		}
	}

	// A byte-budgeted freeze dropped this edge's labels: only its static
	// endpoints, checked above, remain to certify (as core.Validate does).
	if e.Dropped {
		return
	}

	// (d): inferable edges carry no labels; certify them from static
	// sole-source facts instead.
	if e.Inferable {
		v.checkInferable(idx, e, src, dst)
		return
	}

	// (a)/(b) ordering: walk the label pairs through detached cursors and
	// check causality of every instance.
	dstSeq, srcSeq := v.w.EdgeLabels(e, v.tier)
	if dstSeq == nil || srcSeq == nil {
		return
	}
	n := dstSeq.Len()
	if srcSeq.Len() < n {
		n = srcSeq.Len()
	}
	for k := 0; k < n; k++ {
		if v.full() {
			return
		}
		dOrd, sOrd := int(dstSeq.Next()), int(srcSeq.Next())
		v.rep.Labels++
		if dOrd >= dn.Execs || sOrd >= sn.Execs {
			v.add(Finding{Rule: order, Node: e.DstNode, Edge: idx,
				Msg: fmt.Sprintf("label %d ordinal <%d,%d> outside execution counts (%d,%d)", k, dOrd, sOrd, dn.Execs, sn.Execs)})
			continue
		}
		// Same node, same execution: position order decides causality.
		if e.SrcNode == e.DstNode && sOrd == dOrd {
			if e.SrcPos >= e.DstPos {
				v.add(Finding{Rule: order, Node: e.DstNode, Edge: idx,
					Msg: fmt.Sprintf("label %d: local pair <%d,%d> with source position %d not before %d", k, dOrd, sOrd, e.SrcPos, e.DstPos)})
			}
			continue
		}
		tsSrc, tsDst := v.ts(e.SrcNode, sOrd), v.ts(e.DstNode, dOrd)
		if tsSrc >= tsDst {
			v.add(Finding{Rule: order, Node: e.DstNode, Edge: idx, TS: tsDst,
				Msg: fmt.Sprintf("label %d: source t=%d does not precede destination t=%d", k, tsSrc, tsDst)})
		}
	}
}

// checkInferable certifies a labels-dropped local edge: it is sound exactly
// when the node itself implies every <k,k> pair — same node, source
// statically before destination on the path, firing on every execution, and
// no intervening kill (DD) or closer CD-parent branch (CD) between them.
func (v *verifier) checkInferable(idx int, e *core.Edge, src, dst *ir.Stmt) {
	nd := v.w.Nodes[e.DstNode]
	bad := func(msg string) { v.add(Finding{Rule: RuleLocalEdge, Node: e.DstNode, Edge: idx, Msg: msg}) }
	if e.SrcNode != e.DstNode {
		bad(fmt.Sprintf("inferable edge spans nodes %d -> %d; inference is node-local", e.SrcNode, e.DstNode))
		return
	}
	if e.SrcPos >= e.DstPos {
		bad(fmt.Sprintf("inferable edge source position %d not before destination %d", e.SrcPos, e.DstPos))
		return
	}
	if e.Count != nd.Execs {
		bad(fmt.Sprintf("inferable edge fired %d of %d executions; labels are only implied when it fires on all", e.Count, nd.Execs))
	}
	switch e.Kind {
	case core.CD:
		// The branch must be the closest CD parent on the path: a later
		// CD-parent branch before the destination would take over.
		for p := e.SrcPos + 1; p < e.DstPos; p++ {
			s := nd.Stmts[p]
			if s.Op == ir.OpBr && v.a.IsControlDep(dst.Fn, s.Blk, dst.Blk) {
				bad(fmt.Sprintf("branch [%d]%s between source and destination is a closer CD parent", s.ID, s))
				return
			}
		}
	case core.DD:
		memIdx := v.a.MemOperandIndex(dst.ID)
		if e.OpIdx == memIdx && memIdx >= 0 {
			if src.Op != ir.OpStore {
				bad(fmt.Sprintf("memory operand sourced from [%d]%s, want a store", src.ID, src))
			}
			return // intervening stores may alias elsewhere; not refutable statically
		}
		var uses []ir.Reg
		uses = dst.Uses(uses)
		if e.OpIdx < 0 || e.OpIdx >= len(uses) {
			return // reported by the static check above
		}
		r := uses[e.OpIdx]
		if !definesReg(src, r) {
			bad(fmt.Sprintf("[%d]%s does not define r%d used by operand %d", src.ID, src, r, e.OpIdx))
			return
		}
		for p := e.SrcPos + 1; p < e.DstPos; p++ {
			if definesReg(nd.Stmts[p], r) {
				bad(fmt.Sprintf("[%d]%s kills r%d between source and destination", nd.Stmts[p].ID, nd.Stmts[p], r))
				return
			}
		}
	}
}

// definesReg reports whether s writes register r (including call return
// destinations, which the simulator retargets at return time).
func definesReg(s *ir.Stmt, r ir.Reg) bool {
	if s.Dest != r {
		return false
	}
	return s.Op.HasDef() || s.Op == ir.OpCall
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
