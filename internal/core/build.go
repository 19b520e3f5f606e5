package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"wet/internal/interp"
	"wet/internal/ir"
	"wet/internal/stream"
	"wet/internal/trace"
)

// Builder constructs a WET from the dynamic event stream. It implements
// trace.Sink: statement events are buffered until the covering PathDone
// event names the Ball–Larus path, at which point the node is labeled.
type Builder struct {
	prog   *ir.Program
	static *interp.Static

	w       *WET
	nodeIdx map[nodeKey]int

	// Per-instance location records (dropped after Finish): where each
	// dynamic statement instance landed, packed one word per instance as
	// node(16) | pos(12) | ord(32) — see packInstLoc. Indexed by instance
	// id in chunks of instChunk words, so growth never copies; this table is
	// the only builder structure that must grow with the full trace even
	// when streaming. nInst is the next instance id (ids are dense from 1).
	instLoc [][]uint64
	nInst   trace.Inst

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
	edgeIdx map[edgeKey]int
	slots   [][]edgeSlot
	ramps   []edgeRamp

	time     uint32
	prevNode int

	// Streaming (epoch-segmented) state; zero/nil on single-epoch builds.
	// jobs collects one seal's compression closures; scratch is the
	// per-worker selection state kept across seals.
	epochTS uint32
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
	// abort, when set (buildStreaming wires it to a CancelCauseFunc),
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

type nodeKey struct {
	fn     int
	pathID int64
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

// edgeRamp is the open epoch's label state of w.Edges[i]. While !stored the
// labels so far are exactly <start+k, start+k> for k < n (start = the node's
// first ordinal of the epoch) and only n is kept; stored edges, which
// include every cross-node edge, append to Edge.DstOrd/SrcOrd.
type edgeRamp struct {
	n      uint32
	stored bool
}

// edgeSlot is a one-entry cache of edgeIdx: the last key looked up from one
// operand of one statement occurrence (no real key is 0) and its edge.
type edgeSlot struct {
	key  edgeKey
	edge int
}

// instChunk is the instLoc chunk size in words (64 KiB).
const instChunk = 1 << 13

// NewBuilder returns a builder for one run of the analyzed program.
func NewBuilder(st *interp.Static) *Builder {
	return &Builder{
		prog:     st.Prog,
		static:   st,
		w:        &WET{Prog: st.Prog, Static: st, StmtOcc: make([][]StmtRef, len(st.Prog.Stmts))},
		nodeIdx:  map[nodeKey]int{},
		edgeIdx:  map[edgeKey]int{},
		nInst:    1, // instance ids start at 1
		prevNode: -1,
	}
}

// Stmt implements trace.Sink. The pending and operand counters are reset,
// not the buffers, at each PathDone, so buffering allocates only while the
// longest path seen so far is still growing. Instance ids are dense, so the
// id itself is implied: location records are written in order.
func (b *Builder) Stmt(_ trace.Inst, st *ir.Stmt, value int64, ddSrcs []trace.Inst, ddVals []int64, cdSrc trace.Inst) {
	if b.err != nil {
		return
	}
	p, nd, nv := b.nPend, b.nDD+len(ddSrcs), b.nDV+len(ddVals)
	if p == len(b.pending) || nd > len(b.dd) || nv > len(b.dv) {
		b.pending, b.dd, b.dv = room(b.pending, p+1), room(b.dd, nd), room(b.dv, nv)
	}
	b.pending[p] = pendingEvent{value: value, cd: cdSrc, stmt: int32(st.ID), off: int32(b.nDD), n: int32(len(ddSrcs))}
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
	ord := uint32(node.Execs)
	node.Execs++
	node.TS = append(node.TS, b.time)
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

	// Record instance locations and dependence edge labels. A source inside
	// this path execution is (node, src-pathStart, ord) by construction; only
	// cross-path sources read the location table.
	if b.nDV != b.nDD {
		return fmt.Errorf("core: path (fn %d, id %d) delivered %d operand sources, %d values", fn, pathID, b.nDD, b.nDV)
	}
	pending, dd := b.pending[:b.nPend], b.dd[:b.nDD]
	slots := b.slots[node.ID]
	if need := len(dd) + len(pending); len(slots) < need {
		slots = make([]edgeSlot, need)
		b.slots[node.ID] = slots
	}
	pathStart, here, start := b.nInst, uint32(node.ID)<<12, uint32(node.sealedExecs)
	for i := range pending {
		ev := &pending[i]
		if int(ev.stmt) != node.Stmts[i].ID {
			st := b.prog.Stmts[ev.stmt]
			return fmt.Errorf("core: path (fn %d, id %d) statement %d is [%d]%s, node expects [%d]%s",
				fn, pathID, i, st.ID, st, node.Stmts[i].ID, node.Stmts[i])
		}
		cur := b.nInst
		if int(cur/instChunk) == len(b.instLoc) {
			b.instLoc = append(b.instLoc, make([]uint64, instChunk))
		}
		b.instLoc[cur/instChunk][cur%instChunk] = packInstLoc(node.ID, i, ord)
		b.nInst++

		// DD operands in order, then the CD source as operand -1: the order
		// edges are created in is the order they are saved in.
		for k := 0; k <= int(ev.n); k++ {
			src, kind, opIdx := ev.cd, CD, -1
			if k < int(ev.n) {
				src, kind, opIdx = dd[int(ev.off)+k], DD, k
			}
			if src == 0 {
				continue
			}
			srcLoc, srcOrd := here|uint32(src-pathStart), ord
			if src < pathStart {
				l := b.instLoc[src/instChunk][src%instChunk]
				srcLoc, srcOrd = uint32(l>>32), uint32(l)
			} else if src > cur {
				return fmt.Errorf("core: dependence source instance %d not yet recorded", src)
			}
			b.label(&slots[int(ev.off)+i+k], kind, int(srcLoc>>12), int(srcLoc&0xfff), node.ID, i, opIdx, ord, srcOrd, start)
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
	if b.epochTS > 0 && b.time%b.epochTS == 0 {
		b.sealEpoch(int(b.time/b.epochTS) - 1)
	}
	return nil
}

// packInstLoc packs an instance location into one word: node(16) | pos(12) |
// ord(32). The widths match packEdgeKey's; Builder.node rejects programs
// that outgrow them.
func packInstLoc(node, pos int, ord uint32) uint64 {
	return uint64(node)<<44 | uint64(pos)<<32 | uint64(ord)
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
	e, r := b.w.Edges[sl.edge], &b.ramps[sl.edge]
	e.Count++
	if !r.stored {
		if srcOrd == dstOrd && dstOrd == start+r.n {
			r.n++
			return
		}
		b.materialise(sl.edge, start, int(r.n)+4)
	}
	e.DstOrd = append(e.DstOrd, dstOrd)
	e.SrcOrd = append(e.SrcOrd, srcOrd)
}

// materialise turns edge idx's counted ramp into stored labels, each ordinal
// slice with room for extra more: in the buffers an earlier epoch left when
// they are large enough, else in one allocation holding both.
func (b *Builder) materialise(idx int, start uint32, extra int) {
	e, r := b.w.Edges[idx], &b.ramps[idx]
	n, c := int(r.n), int(r.n)+extra
	*r = edgeRamp{stored: true}
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
	k := nodeKey{fn, pathID}
	if idx, ok := b.nodeIdx[k]; ok {
		return b.w.Nodes[idx], nil
	}
	n, err := newNode(b.static, len(b.w.Nodes), fn, pathID)
	if err != nil {
		return nil, err
	}
	var uses []ir.Reg
	for pos, s := range n.Stmts {
		// Operands: the register uses, plus the memory-carried producer of a
		// load. opIdx must fit packEdgeKey's 4-bit field.
		uses = s.Uses(uses[:0])
		ops := len(uses)
		if s.Op == ir.OpLoad || s.Op == ir.OpLoadSh {
			ops++
		}
		if ops > maxOperands {
			return nil, fmt.Errorf("core: [%d]%s has %d register operands, the edge key holds %d", s.ID, s, ops, maxOperands)
		}
		b.w.StmtOcc[s.ID] = append(b.w.StmtOcc[s.ID], StmtRef{Node: n.ID, Pos: pos})
	}
	if n.ID >= 1<<16 || len(n.Stmts) > 1<<12 {
		return nil, fmt.Errorf("core: node %d (%d statements) exceeds packed location widths", n.ID, len(n.Stmts))
	}
	b.slots = append(b.slots, nil)
	b.w.Nodes = append(b.w.Nodes, n)
	b.nodeIdx[k] = n.ID
	return n, nil
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

// Finish validates and returns the built WET (tier-1 labeled, not frozen).
func (b *Builder) Finish() (*WET, error) {
	if b.epochTS > 0 {
		return nil, fmt.Errorf("core: streaming builder must finish via FinishStreaming")
	}
	if b.err != nil {
		return nil, b.err
	}
	if b.nPend != 0 {
		return nil, fmt.Errorf("core: %d statement events not covered by a path", b.nPend)
	}
	w := b.w
	w.Time = b.time
	// Tier-1 queries and FreezeErr read plain label slices: store what the
	// builder only counted. Then fill edge adjacency.
	for i := range w.Edges {
		if !b.ramps[i].stored {
			b.materialise(i, 0, 0)
		}
	}
	w.indexEdges()
	// Release instance records.
	b.instLoc = nil
	return w, nil
}

func addUniq(s *[]int, v int) {
	for _, x := range *s {
		if x == v {
			return
		}
	}
	*s = append(*s, v)
}

// Build runs the program and constructs its WET in one call. The returned
// WET is unfrozen (tier-1 labels only); call FreezeErr for tier-2 streams and
// the size report. opts.Sink is overridden.
func Build(st *interp.Static, opts interp.Options) (*WET, *interp.Result, error) {
	b := NewBuilder(st)
	cnt := trace.NewCounting(b)
	opts.Sink = cnt
	res, err := interp.Run(st, opts)
	if err != nil {
		return nil, res, err
	}
	w, err := b.Finish()
	if err != nil {
		return nil, res, err
	}
	w.Raw = cnt.RawStats
	return w, res, nil
}

// Ensure Builder satisfies trace.Sink and its concurrency extension.
var _ trace.Sink = (*Builder)(nil)
var _ trace.ConcSink = (*Builder)(nil)
