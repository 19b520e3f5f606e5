package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"wet/internal/interp"
	"wet/internal/ir"
	"wet/internal/pool"
	"wet/internal/stream"
	"wet/internal/trace"
)

// Builder constructs a WET from the dynamic event stream. It implements
// trace.Sink: statement events are buffered until the covering PathDone
// event names the Ball–Larus path, at which point the node is labeled.
type Builder struct {
	prog   *ir.Program
	static *interp.Static

	w *WET
	// nodeIdx[fn] maps a Ball–Larus path id of function fn to its node;
	// plans[node] is what every execution of the node is checked against
	// and what it need not look at.
	nodeIdx []map[int64]int
	plans   []pathPlan

	// Where each path execution landed (dropped after Finish), one word per
	// timestamp as node(32) | ord(32), in chunks of pathChunk words so growth
	// never copies. An instance is named by its path's timestamp and its
	// position (trace.InstAt), so this table locates every dependence source:
	// it is the only builder structure that grows with the whole trace even
	// when streaming, one word per path execution rather than per statement.
	pathLoc [][]uint64

	// Pending events of the currently executing path; dd/dv hold their
	// operand sources and values back to back (pendingEvent.off/n). The
	// arrays keep their length and only the counters move, so Stmt stores
	// no slice header; they grow only when a path outgrows them.
	pending         []pendingEvent
	dd              []trace.Inst
	dv              []int64
	nPend, nDD, nDV int
	keyBuf          []uint64 // labelValues' input tuple, reused across paths

	// Edge lookup: slots[node] caches the edge each operand of the node's
	// statements used last, edgeIdx answers misses; ramps parallels w.Edges.
	// fixed lists the edges whose source a path fixes (pathPlan.src): after
	// their node's first execution they are counted, not visited
	// (settleFixed).
	edgeIdx map[edgeKey]int
	slots   [][]edgeSlot
	ramps   []edgeRamp
	fixed   []int

	time     uint32
	prevNode int

	// fopts are the options the builder was made with; EpochTS > 0 seals
	// epochs (segment.go). jobs collects one seal's compression closures;
	// scratch is the per-worker selection state kept across seals (nil on a
	// one-epoch build).
	fopts   FreezeOptions
	jobs    []func(*stream.Scratch)
	scratch []*stream.Scratch

	// Concurrency capture (conc.go): the owning thread of the path being
	// built and the sync / shared-access events buffered since the last
	// PathDone. Inert (and the WET's Conc nil) until the first such event.
	concTid  int32
	pendSync []pendSyncEvent
	pendAcc  []pendAccEvent

	// CheckDeterminism re-verifies the tier-1 value-grouping invariant on
	// every execution: a repeated input tuple must reproduce the stored
	// values exactly.
	CheckDeterminism bool

	err error
	// abort, when set (record wires it to a CancelCauseFunc),
	// propagates a builder failure to the interpreter's context so the
	// run stops within one ctx-check window instead of streaming events
	// into a dead build. Called only from the interpreter goroutine.
	abort func(error)
}

// fail records the first builder error and aborts the surrounding run.
func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
	if b.abort != nil {
		b.abort(b.err)
	}
}

// edgeKey packs an edge identity into one word for fast map hashing:
// kind(1) | srcNode(16) | srcPos(12) | dstNode(16) | dstPos(12) | opIdx(4).
// Builder.node rejects programs that outgrow the widths, so the panic below
// is unreachable from a sink fed by the interpreter.
type edgeKey = uint64

// maxOperands is the number of DD operands (opIdx values) an edge key holds.
const maxOperands = 14

func packEdgeKey(kind EdgeKind, srcNode, srcPos, dstNode, dstPos, opIdx int) edgeKey {
	if srcNode >= 1<<16 || dstNode >= 1<<16 || srcPos >= 1<<12 || dstPos >= 1<<12 || opIdx >= maxOperands {
		panic("core: edge key field overflow")
	}
	return uint64(kind)<<61 |
		uint64(srcNode)<<44 | uint64(srcPos)<<32 |
		uint64(dstNode)<<16 | uint64(dstPos)<<4 |
		uint64(opIdx+1) // -1 (CD) maps to 0
}

// pendingEvent is pointer-free (static statement id, operands as the window
// dd/dv[off:off+n]), so buffering one crosses no GC write barrier.
type pendingEvent struct {
	value        int64
	cd           trace.Inst
	stmt, off, n int32
}

// edgeRamp is the label state of w.Edges[i]: count is every label so far,
// written to Edge.Count when the build ends (countEdges), so a label that
// extends a ramp touches this array only. While !stored the open epoch's
// labels so far are exactly <start+k, start+k> for k < n (start = the node's
// first ordinal of the epoch) and only n is kept; stored edges, which
// include every cross-node edge, append to Edge.DstOrd/SrcOrd.
type edgeRamp struct {
	count  int
	n      uint32
	stored bool
}

// edgeSlot is a one-entry cache of edgeIdx: the last key looked up from one
// operand of one statement occurrence (no real key is 0) and its edge.
type edgeSlot struct {
	key  edgeKey
	edge int
}

// pathChunk is the pathLoc chunk size in words (64 KiB).
const pathChunk = 1 << 13

// NewBuilder returns a builder for one run of the analyzed program. With
// opts.EpochTS > 0 it seals and tier-2 compresses the profile in epochs of
// that many timestamps while events arrive (segment.go) and keeps no tier
// 1; with 0 it builds one epoch and keeps its tier-1 labels for FreezeErr.
// opts.AggressiveEdges, Workers and Ctx apply to the seals.
func NewBuilder(st *interp.Static, opts FreezeOptions) *Builder {
	if opts.Ctx == nil {
		opts.Ctx = context.Background()
	}
	b := &Builder{
		prog:     st.Prog,
		static:   st,
		w:        &WET{Prog: st.Prog, Static: st, StmtOcc: make([][]StmtRef, len(st.Prog.Stmts))},
		nodeIdx:  make([]map[int64]int, len(st.Prog.Funcs)),
		edgeIdx:  map[edgeKey]int{},
		prevNode: -1,
		fopts:    opts,
	}
	if opts.EpochTS > 0 {
		b.scratch = newScratches(pool.Workers(opts.Workers, math.MaxInt))
	}
	return b
}

// Stmt implements trace.Sink. The pending and operand counters are reset,
// not the buffers, at each PathDone, so buffering allocates only while the
// longest path seen so far is still growing. The instance's own name is
// implied: it is the next position of the path that closes at the next
// timestamp.
func (b *Builder) Stmt(_ trace.Inst, st *ir.Stmt, value int64, ddSrcs []trace.Inst, ddVals []int64, cdSrc trace.Inst) {
	if b.err != nil {
		return
	}
	p, nd, nv := b.nPend, b.nDD+len(ddSrcs), b.nDV+len(ddVals)
	if p == len(b.pending) || nd > len(b.dd) || nv > len(b.dv) {
		b.pending, b.dd, b.dv = room(b.pending, p+1), room(b.dd, nd), room(b.dv, nv)
	}
	// Field by field: a composite literal is built on the stack and copied
	// with 16-byte moves that stall on the narrower stores before them.
	ev := &b.pending[p]
	ev.value, ev.cd, ev.stmt, ev.off, ev.n = value, cdSrc, int32(st.ID), int32(b.nDD), int32(len(ddSrcs))
	copy(b.dd[b.nDD:], ddSrcs)
	copy(b.dv[b.nDV:], ddVals)
	b.nPend, b.nDD, b.nDV = p+1, nd, nv
}

// room returns s with at least n elements, regrowing it only when it has
// fewer; the whole capacity is usable.
func room[T any](s []T, n int) []T {
	if n > len(s) {
		s = slices.Grow(s, n-len(s))
		s = s[:cap(s)]
	}
	return s
}

// PathDone implements trace.Sink.
func (b *Builder) PathDone(fn int, pathID int64) {
	if b.err != nil {
		return
	}
	if err := b.flushPath(fn, pathID); err != nil {
		b.fail(err)
	}
}

func (b *Builder) flushPath(fn int, pathID int64) error {
	node, err := b.node(fn, pathID)
	if err != nil {
		return err
	}
	if b.nPend != len(node.Stmts) {
		return fmt.Errorf("core: path (fn %d, id %d) delivered %d events, node has %d statements", fn, pathID, b.nPend, len(node.Stmts))
	}
	b.time++
	ts, ord := b.time, uint32(node.Execs)
	node.Execs++
	node.TS = append(node.TS, ts)
	if int(ts/pathChunk) == len(b.pathLoc) {
		b.pathLoc = append(b.pathLoc, make([]uint64, pathChunk))
	}
	b.pathLoc[ts/pathChunk][ts%pathChunk] = uint64(node.ID)<<32 | uint64(ord)
	if b.prevNode >= 0 {
		addUniq(&b.w.Nodes[b.prevNode].CFNext, node.ID)
		addUniq(&node.CFPrev, b.prevNode)
	} else {
		b.w.FirstNode = node.ID
	}
	b.prevNode = node.ID
	b.w.LastNode = node.ID
	if err := b.concFlush(); err != nil {
		return err
	}

	// Record dependence edge labels. A source inside this path execution is
	// (node, pos, ord) by construction; only a source in an earlier path
	// reads the location table, at its timestamp. A source the path fixes
	// is only compared with what the path says after the node's first
	// execution: its edge fires on every execution, on the ramp.
	if b.nDV != b.nDD {
		return fmt.Errorf("core: path (fn %d, id %d) delivered %d operand sources, %d values", fn, pathID, b.nDD, b.nDV)
	}
	pending, dd := b.pending[:b.nPend], b.dd[:b.nDD]
	slots, plan := b.slots[node.ID], &b.plans[node.ID]
	if need := len(dd) + len(pending); len(slots) < need {
		slots = make([]edgeSlot, need)
		b.slots[node.ID] = slots
	}
	start, first := uint32(node.sealedExecs), ord == 0
	for i := range pending {
		ev := &pending[i]
		if ev.stmt != plan.ids[i] {
			st := b.prog.Stmts[ev.stmt]
			return fmt.Errorf("core: path (fn %d, id %d) statement %d is [%d]%s, node expects [%d]%s",
				fn, pathID, i, st.ID, st, node.Stmts[i].ID, node.Stmts[i])
		}
		if ev.n != plan.nops[i] {
			return fmt.Errorf("core: path (fn %d, id %d) statement %d [%d]%s delivered %d operand sources, it reads %d",
				fn, pathID, i, ev.stmt, node.Stmts[i], ev.n, plan.nops[i])
		}

		// DD operands in order, then the CD source as operand -1: the order
		// edges are created in is the order they are saved in.
		for k := 0; k <= int(ev.n); k++ {
			j := int(ev.off) + i + k
			src, kind, opIdx := ev.cd, CD, -1
			if k < int(ev.n) {
				src, kind, opIdx = dd[int(ev.off)+k], DD, k
			}
			fixed := plan.src[j]
			if fixed >= 0 && !first && src == trace.InstAt(ts, int(fixed)) {
				continue
			}
			if src == 0 && fixed < 0 {
				continue
			}
			srcNode, srcPos, srcOrd := node.ID, trace.InstPos(src), ord
			switch sts := trace.InstTS(src); {
			case sts > ts || sts == ts && srcPos > i:
				return fmt.Errorf("core: dependence source instance %d.%d not yet recorded", sts, srcPos)
			case sts < ts:
				l := b.pathLoc[sts/pathChunk][sts%pathChunk]
				srcNode, srcOrd = int(l>>32), uint32(l)
				if srcPos >= len(b.w.Nodes[srcNode].Stmts) {
					return fmt.Errorf("core: dependence source instance %d.%d outside its %d-statement path", sts, srcPos, len(b.w.Nodes[srcNode].Stmts))
				}
			}
			if fixed >= 0 && src != trace.InstAt(ts, int(fixed)) {
				return fmt.Errorf("core: path (fn %d, id %d) statement %d operand %d reads instance %d.%d, the path fixes position %d",
					fn, pathID, i, opIdx, trace.InstTS(src), srcPos, fixed)
			}
			b.label(&slots[j], kind, srcNode, srcPos, node.ID, i, opIdx, ord, srcOrd, start)
			if fixed >= 0 {
				b.fixed = append(b.fixed, slots[j].edge)
			}
		}
	}

	// Value grouping: extend each group's pattern and unique values.
	if err := b.labelValues(node, pending); err != nil {
		return err
	}
	b.nPend, b.nDD, b.nDV = 0, 0, 0

	// Streaming: the timestamp just issued closed its epoch — seal it, which
	// compresses the epoch's label slices before the run resumes. A path carries
	// exactly one timestamp, so a path never spans epochs.
	if e := b.fopts.EpochTS; e > 0 && b.time%e == 0 {
		b.sealEpoch(int(b.time/e) - 1)
	}
	return nil
}

// label records one <dstOrd, srcOrd> instance of a dependence edge, creating
// the edge on first use. sl is the destination operand's slot; start is the
// destination node's first ordinal of the open epoch. The common case — a
// local edge extending its ramp — hashes, appends and allocates nothing.
func (b *Builder) label(sl *edgeSlot, kind EdgeKind, srcNode, srcPos, dstNode, dstPos, opIdx int, dstOrd, srcOrd, start uint32) {
	if k := packEdgeKey(kind, srcNode, srcPos, dstNode, dstPos, opIdx); sl.key != k {
		idx, ok := b.edgeIdx[k]
		if !ok {
			idx = len(b.w.Edges)
			e := &Edge{Kind: kind, SrcNode: srcNode, SrcPos: srcPos, DstNode: dstNode, DstPos: dstPos, OpIdx: opIdx, SharedWith: -1}
			b.w.Edges = append(b.w.Edges, e)
			b.ramps = append(b.ramps, edgeRamp{stored: srcNode != dstNode})
			b.edgeIdx[k] = idx
		}
		sl.key, sl.edge = k, idx
	}
	r := &b.ramps[sl.edge]
	r.count++
	if !r.stored {
		if srcOrd == dstOrd && dstOrd == start+r.n {
			r.n++
			return
		}
		b.materialise(sl.edge, start, int(r.n)+4)
	}
	e := b.w.Edges[sl.edge]
	e.DstOrd = append(e.DstOrd, dstOrd)
	e.SrcOrd = append(e.SrcOrd, srcOrd)
}

// materialise turns edge idx's counted ramp into stored labels, each ordinal
// slice with room for extra more: in the buffers an earlier epoch left when
// they are large enough, else in one allocation holding both.
func (b *Builder) materialise(idx int, start uint32, extra int) {
	e, r := b.w.Edges[idx], &b.ramps[idx]
	n, c := int(r.n), int(r.n)+extra
	r.n, r.stored = 0, true
	if cap(e.DstOrd) >= c && cap(e.SrcOrd) >= c {
		e.DstOrd, e.SrcOrd = e.DstOrd[:n], e.SrcOrd[:n]
	} else {
		buf := make([]uint32, 2*c)
		e.DstOrd, e.SrcOrd = buf[:n:c], buf[c:c+n]
	}
	for k := range e.DstOrd {
		e.DstOrd[k], e.SrcOrd[k] = start+uint32(k), start+uint32(k)
	}
}

// labelValues extends the node's groups with this execution's input tuple
// and produced values.
func (b *Builder) labelValues(node *Node, pending []pendingEvent) error {
	for _, g := range node.Groups {
		key := b.keyBuf[:0]
		for _, ks := range g.keyPlan {
			ev := &pending[ks.pos]
			v := ev.value
			if ks.ddIdx >= 0 {
				if ks.ddIdx >= int(ev.n) {
					return fmt.Errorf("core: key plan reads operand %d of %s, only %d recorded", ks.ddIdx, node.Stmts[ks.pos], ev.n)
				}
				v = b.dv[int(ev.off)+ks.ddIdx]
			}
			key = append(key, uint64(v))
		}
		if cap(key) != cap(b.keyBuf) {
			b.keyBuf = key
		}
		if g.keys == nil {
			g.keys = &tupleTable{w: len(g.keyPlan), index: make([]uint32, 4)}
		}
		idx, seen := g.keys.intern(key)
		if !seen {
			for mi, pos := range g.ValMembers {
				g.UVals[mi] = append(g.UVals[mi], uint32(pending[pos].value))
			}
			if b.CheckDeterminism && len(g.ValMembers) > 0 {
				if g.checkVals == nil {
					g.checkVals = make([][]uint32, len(g.ValMembers))
				}
				for mi, pos := range g.ValMembers {
					g.checkVals[mi] = append(g.checkVals[mi], uint32(pending[pos].value))
				}
			}
		} else if b.CheckDeterminism {
			// Compare against the retained copy, not UVals: the streaming
			// pipeline seals UVals away per epoch, leaving only the tuple
			// table behind, while idx stays a run-global index.
			for mi, pos := range g.ValMembers {
				if got, want := uint32(pending[pos].value), g.checkVals[mi][idx]; got != want {
					return fmt.Errorf("core: determinism violation at %s: value %d, stored %d (inputs %v)",
						node.Stmts[pos], got, want, g.Inputs)
				}
			}
		}
		g.Pattern = append(g.Pattern, idx)
	}
	return nil
}

// tupleTable numbers a group's distinct input tuples in first-seen order.
// Tuple i is words[i*w:(i+1)*w]; index is open-addressed at load <= 1/2 and
// holds a tuple's number plus one (0 marks an empty slot). The hash is a
// fixed mix of the words, so lookups cost the same on every run.
type tupleTable struct {
	w     int
	n     uint32
	words []uint64
	index []uint32
}

// intern returns key's number and whether the table already held it,
// adding it under the next number when not.
func (t *tupleTable) intern(key []uint64) (uint32, bool) {
	i := t.slot(key)
	if s := t.index[i]; s != 0 {
		return s - 1, true
	}
	t.words = append(t.words, key...)
	t.n++
	t.index[i] = t.n
	if 2*int(t.n) > len(t.index) {
		t.index = make([]uint32, 2*len(t.index))
		for j := uint32(0); j < t.n; j++ {
			t.index[t.slot(t.tuple(j))] = j + 1
		}
	}
	return t.n - 1, false
}

// slot is where key's probe sequence meets key or an empty slot.
func (t *tupleTable) slot(key []uint64) int {
	h := uint64(len(key))
	for _, x := range key {
		h = mix(h, x)
	}
	mask := len(t.index) - 1
	i := int(h) & mask
	for t.index[i] != 0 && !slices.Equal(t.tuple(t.index[i]-1), key) {
		i = (i + 1) & mask
	}
	return i
}

func (t *tupleTable) tuple(j uint32) []uint64 { return t.words[int(j)*t.w : int(j+1)*t.w] }

// mix folds the word x into the hash h: a fixed multiply and xor-shift, so a
// hash is the same on every run.
func mix(h, x uint64) uint64 {
	h = (h ^ x) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// node returns (creating on first execution) the WET node for a path: the
// static side from newNode, then the builder's width checks and indexes.
func (b *Builder) node(fn int, pathID int64) (*Node, error) {
	if fn < 0 || fn >= len(b.nodeIdx) {
		return nil, fmt.Errorf("core: path of function %d, the program has %d", fn, len(b.nodeIdx))
	}
	if idx, ok := b.nodeIdx[fn][pathID]; ok {
		return b.w.Nodes[idx], nil
	}
	n, err := newNode(b.static, len(b.w.Nodes), fn, pathID)
	if err != nil {
		return nil, err
	}
	if n.ID >= 1<<16 || len(n.Stmts) > 1<<12 {
		return nil, fmt.Errorf("core: node %d (%d statements) exceeds the edge key's widths", n.ID, len(n.Stmts))
	}
	plan, err := newPathPlan(b.static, n)
	if err != nil {
		return nil, err
	}
	for pos, s := range n.Stmts {
		b.w.StmtOcc[s.ID] = append(b.w.StmtOcc[s.ID], StmtRef{Node: n.ID, Pos: pos})
	}
	b.slots, b.plans = append(b.slots, nil), append(b.plans, plan)
	b.w.Nodes = append(b.w.Nodes, n)
	if b.nodeIdx[fn] == nil {
		b.nodeIdx[fn] = map[int64]int{}
	}
	b.nodeIdx[fn][pathID] = n.ID
	return n, nil
}

// pathPlan is what every execution of a node is checked against, and what
// it need not look at, worked out once from the path's statements.
type pathPlan struct {
	ids []int32 // statement ids
	// nops and src are interp.Static.PathSources: each statement's DD
	// operand count and, slot by slot as Builder.slots lays them out, the
	// position of the instance a slot reads when the path fixes it, else -1.
	nops, src []int32
	raw       trace.RawStats // one execution's counts apart from the dependences
}

// newPathPlan works out node n's pathPlan. A statement's operand count must
// fit packEdgeKey's 4-bit opIdx.
func newPathPlan(st *interp.Static, n *Node) (pathPlan, error) {
	p := pathPlan{ids: make([]int32, len(n.Stmts)), raw: trace.PathRaw(n.Stmts)}
	p.src, p.nops = st.PathSources(n.Fn, n.Blocks)
	for i, s := range n.Stmts {
		if p.nops[i] > maxOperands {
			return p, fmt.Errorf("core: [%d]%s has %d register operands, the edge key holds %d", s.ID, s, p.nops[i], maxOperands)
		}
		p.ids[i] = int32(s.ID)
	}
	return p, nil
}

// settleFixed brings the edges a path fixes up to date before a seal or the
// end of the build: each fires on every execution of its node, so its
// labels this epoch are the node's executions this epoch, all on the ramp.
func (b *Builder) settleFixed() {
	for _, ei := range b.fixed {
		n, r := b.w.Nodes[b.w.Edges[ei].DstNode], &b.ramps[ei]
		r.count, r.n = n.Execs, uint32(n.Execs-n.sealedExecs)
	}
}

// newNode builds the static side of the WET node for path pathID of
// function fn, its statements and value groups, for the builder and for
// RestoreNode alike. Edge adjacency waits for every edge (indexEdges).
func newNode(st *interp.Static, id, fn int, pathID int64) (*Node, error) {
	blocks, err := st.Paths[fn].Blocks(pathID)
	if err != nil {
		return nil, err
	}
	f := st.Prog.Funcs[fn]
	n := &Node{ID: id, Fn: fn, PathID: pathID, Blocks: blocks}
	for _, bid := range blocks {
		n.Stmts = append(n.Stmts, f.Blocks[bid].Stmts...)
	}
	formGroups(n, f.NumRegs)
	return n, nil
}

// isInputClass reports whether a statement's result is an input to the node
// (the paper's "input statements": reads whose value cannot be derived from
// other inputs). Shared loads can observe other threads' stores and spawn
// results depend on global scheduling order, so both are inputs — otherwise
// the value-grouping determinism invariant would not hold for them.
func isInputClass(op ir.Op) bool {
	return op == ir.OpLoad || op == ir.OpInput || op == ir.OpLoadSh || op == ir.OpSpawn
}

// formGroups performs the paper's §3.2 static grouping for one node:
// compute each statement's transitive input set, group statements with
// identical sets, merge proper-subset groups into their (smallest)
// superset, and derive the runtime key-extraction plan.
//
// The node's input elements are numbered once, in InputElem.String order
// (ext:r… before src@…, numbers compared as decimal strings), so an input
// set is a bitset listing its elements sorted: a union is an OR, identical
// sets meet in a table hashed on their words, and a is a proper subset of b
// when it has fewer bits and none outside b.
func formGroups(n *Node, numRegs int) {
	stmts := n.Stmts
	// walk calls use on each register operand of each non-input statement,
	// with the register's latest definition before it (-1: external input).
	lastDef := make([]int32, numRegs) // position plus one, 0 for none
	var uses []ir.Reg
	walk := func(use func(p, ui int, r ir.Reg, def int32)) {
		clear(lastDef)
		for p, s := range stmts {
			if !isInputClass(s.Op) {
				uses = s.Uses(uses[:0])
				for ui, r := range uses {
					use(p, ui, r, lastDef[r]-1)
				}
			}
			if s.Op.HasDef() && s.Dest != ir.NoReg {
				lastDef[s.Dest] = int32(p + 1)
			}
		}
	}

	// The elements: each external register with its first read (the key plan
	// picks the element's value up there), and each input-class statement.
	type element struct {
		in   InputElem
		plan keySource
	}
	var elems []element
	extOf := make([]int, numRegs) // r's element plus one, 0 for none
	walk(func(p, ui int, r ir.Reg, def int32) {
		if def < 0 && extOf[r] == 0 {
			extOf[r] = 1
			elems = append(elems, element{InputElem{Ext: r, Src: -1}, keySource{p, ui}})
		}
	})
	for p, s := range stmts {
		if isInputClass(s.Op) {
			elems = append(elems, element{InputElem{Src: p}, keySource{p, -1}})
		}
	}
	// InputElem.String order: ext:r… (Src -1) before src@…, then the number
	// (Ext is 0 on a src@) as a decimal string.
	num := func(e InputElem) int { return max(e.Src, int(e.Ext)) }
	slices.SortFunc(elems, func(a, b element) int {
		return cmp.Or(cmp.Compare(min(a.in.Src, 0), min(b.in.Src, 0)), decCmp(num(a.in), num(b.in)))
	})

	// Each position's transitive input set: an input-class statement's own
	// bit, else the union of its operands' definitions and external inputs.
	words := (len(elems) + 63) / 64
	sets := make([]uint64, len(stmts)*words)
	set := func(p int32) []uint64 { return sets[int(p)*words : int(p+1)*words] }
	setBit := func(p, bit int) { sets[p*words+bit/64] |= 1 << (bit % 64) }
	for i, e := range elems {
		if e.in.Src >= 0 {
			setBit(e.in.Src, i)
		} else {
			extOf[e.in.Ext] = i + 1
		}
	}
	walk(func(p, _ int, r ir.Reg, def int32) {
		if def < 0 {
			setBit(p, extOf[r]-1)
			return
		}
		for i, x := range set(def) {
			sets[p*words+i] |= x
		}
	})

	// Identical sets form one group, numbered in first-seen order by a tuple
	// table over their words: gid[p] is position p's group, ids.tuple(g) its set.
	ids := &tupleTable{w: words, index: make([]uint32, 4)}
	gid := make([]uint32, len(stmts))
	for p := range int32(len(stmts)) {
		gid[p], _ = ids.intern(set(p))
	}

	// Merge proper-subset groups into their smallest superset: in a stable
	// sort by set size, so chains collapse upward, the first larger set that
	// holds every bit. root[g] is the kept group g ends in, found walking the
	// order backward: a merge target comes later in it.
	ng := int(ids.n)
	size, order, root := make([]int, ng), make([]uint32, ng), make([]uint32, ng)
	for g := range order {
		for _, x := range ids.tuple(uint32(g)) {
			size[g] += bits.OnesCount64(x)
		}
		order[g] = uint32(g)
	}
	slices.SortStableFunc(order, func(a, b uint32) int { return cmp.Compare(size[a], size[b]) })
	for i := ng - 1; i >= 0; i-- {
		g := order[i]
		root[g] = g
		for _, h := range order[i+1:] {
			if size[g] < size[h] && subset(ids.tuple(g), ids.tuple(h)) {
				root[g] = root[h]
				break
			}
		}
	}

	// The kept groups, in the sorted order, with their inputs and key plan in
	// bit order; kept[g] is kept group g's index.
	kept := make([]int, ng)
	for _, g := range order {
		if root[g] != g {
			continue
		}
		kept[g] = len(n.Groups)
		gr := &Group{valIdx: make([]int32, len(stmts))}
		for i := range gr.valIdx {
			gr.valIdx[i] = -1
		}
		for w, x := range ids.tuple(g) {
			for ; x != 0; x &= x - 1 {
				e := elems[64*w+bits.TrailingZeros64(x)]
				gr.Inputs, gr.keyPlan = append(gr.Inputs, e.in), append(gr.keyPlan, e.plan)
			}
		}
		n.Groups = append(n.Groups, gr)
	}

	// Members ascending; the value members among them, with their index.
	n.GroupOf = make([]int, len(stmts))
	for p, s := range stmts {
		n.GroupOf[p] = kept[root[gid[p]]]
		g := n.Groups[n.GroupOf[p]]
		g.Members = append(g.Members, p)
		if s.Op.HasDef() && s.Dest != ir.NoReg {
			g.valIdx[p] = int32(len(g.ValMembers))
			g.ValMembers = append(g.ValMembers, p)
			g.UVals = append(g.UVals, nil)
		}
	}
}

// subset reports whether every bit of a is set in b.
func subset(a, b []uint64) bool {
	for i, x := range a {
		if x&^b[i] != 0 {
			return false
		}
	}
	return true
}

// decCmp orders non-negative integers as their decimal strings sort: scaled
// to one digit count, a tie means the shorter is a prefix, which sorts first.
func decCmp(a, b int) int {
	x, y := a, b
	for p := 10; p <= max(a, b); p *= 10 {
		if a < p {
			x *= 10
		}
		if b < p {
			y *= 10
		}
	}
	return cmp.Or(cmp.Compare(x, y), cmp.Compare(a, b))
}

// Finish validates and returns the built WET, not yet frozen. A segmented
// build seals its trailing epoch and keeps tier 2 only; a one-epoch build
// stores the labels it only counted, so tier-1 queries and FreezeErr read
// plain label slices.
func (b *Builder) Finish() (*WET, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.nPend != 0 {
		return nil, fmt.Errorf("core: %d statement events not covered by a path", b.nPend)
	}
	w := b.w
	w.Time = b.time
	if b.fopts.EpochTS > 0 {
		if err := b.finishEpochs(); err != nil {
			return nil, err
		}
	} else {
		b.settleFixed()
		b.countEdges()
		for i := range w.Edges {
			if !b.ramps[i].stored {
				b.materialise(i, 0, 0)
			}
		}
	}
	w.indexEdges()
	w.Raw = b.rawStats()
	b.pathLoc = nil
	return w, nil
}

// countEdges stores each edge's label count.
func (b *Builder) countEdges() {
	for i, e := range b.w.Edges {
		e.Count = b.ramps[i].count
	}
}

// rawStats returns the run's RawStats: each node's per-execution counts
// times its executions, and one dependence per label of each edge.
func (b *Builder) rawStats() trace.RawStats {
	var r trace.RawStats
	for i, n := range b.w.Nodes {
		r.Add(&b.plans[i].raw, uint64(n.Execs))
	}
	for _, e := range b.w.Edges {
		if e.Kind == DD {
			r.DynDD += uint64(e.Count)
		} else {
			r.DynCD += uint64(e.Count)
		}
	}
	return r
}

func addUniq(s *[]int, v int) {
	for _, x := range *s {
		if x == v {
			return
		}
	}
	*s = append(*s, v)
}

// Build runs the program and constructs its one-epoch WET in one call. The
// returned WET is unfrozen (tier-1 labels only); call FreezeErr for tier-2
// streams and the size report. opts.Sink is overridden.
func Build(st *interp.Static, opts interp.Options) (*WET, *interp.Result, error) {
	return record(st, opts, FreezeOptions{}, false)
}

// Ensure Builder satisfies trace.Sink and its concurrency extension.
var _ trace.Sink = (*Builder)(nil)
var _ trace.ConcSink = (*Builder)(nil)
