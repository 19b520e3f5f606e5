package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

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

// node returns (creating on first execution) the WET node for a path.
func (b *Builder) node(fn int, pathID int64) (*Node, error) {
	k := nodeKey{fn, pathID}
	if idx, ok := b.nodeIdx[k]; ok {
		return b.w.Nodes[idx], nil
	}
	blocks, err := b.static.Paths[fn].Blocks(pathID)
	if err != nil {
		return nil, err
	}
	f := b.prog.Funcs[fn]
	n := &Node{ID: len(b.w.Nodes), Fn: fn, PathID: pathID, Blocks: blocks, stmtPos: map[int]int{}}
	var uses []ir.Reg
	for _, bid := range blocks {
		for _, s := range f.Blocks[bid].Stmts {
			// Operands: the register uses, plus the memory-carried producer
			// of a load. opIdx must fit packEdgeKey's 4-bit field.
			uses = s.Uses(uses[:0])
			ops := len(uses)
			if s.Op == ir.OpLoad || s.Op == ir.OpLoadSh {
				ops++
			}
			if ops > maxOperands {
				return nil, fmt.Errorf("core: [%d]%s has %d register operands, the edge key holds %d", s.ID, s, ops, maxOperands)
			}
			n.stmtPos[s.ID] = len(n.Stmts)
			b.w.StmtOcc[s.ID] = append(b.w.StmtOcc[s.ID], StmtRef{Node: n.ID, Pos: len(n.Stmts)})
			n.Stmts = append(n.Stmts, s)
		}
	}
	if n.ID >= 1<<16 || len(n.Stmts) > 1<<12 {
		return nil, fmt.Errorf("core: node %d (%d statements) exceeds packed location widths", n.ID, len(n.Stmts))
	}
	b.slots = append(b.slots, nil)
	n.InEdges = make([][]int, len(n.Stmts))
	n.OutEdges = make([][]int, len(n.Stmts))
	formGroups(n)
	b.w.Nodes = append(b.w.Nodes, n)
	b.nodeIdx[k] = n.ID
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
func formGroups(n *Node) {
	type set = map[string]InputElem
	sets := make([]set, len(n.Stmts))
	lastDef := map[ir.Reg]int{}
	// extUser[r] remembers the first direct external use of register r:
	// (position, ddVals index), for the key plan.
	type use struct{ pos, ddIdx int }
	extUser := map[ir.Reg]use{}

	var uses []ir.Reg
	for p, s := range n.Stmts {
		sp := set{}
		if isInputClass(s.Op) {
			el := InputElem{Src: p}
			sp[el.String()] = el
		} else {
			uses = s.Uses(uses[:0])
			for ui, r := range uses {
				if q, ok := lastDef[r]; ok {
					for k, v := range sets[q] {
						sp[k] = v
					}
				} else {
					el := InputElem{Ext: r, Src: -1}
					sp[el.String()] = el
					if _, seen := extUser[r]; !seen {
						extUser[r] = use{pos: p, ddIdx: ui}
					}
				}
			}
		}
		sets[p] = sp
		if s.Op.HasDef() && s.Dest != ir.NoReg {
			lastDef[s.Dest] = p
		}
	}

	// Group by canonical set key.
	canon := func(sp set) string {
		ks := make([]string, 0, len(sp))
		for k := range sp {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return strings.Join(ks, ",")
	}
	groupAt := map[string]*Group{}
	var order []string
	for p := range n.Stmts {
		key := canon(sets[p])
		g, ok := groupAt[key]
		if !ok {
			g = &Group{}
			for _, el := range sets[p] {
				g.Inputs = append(g.Inputs, el)
			}
			sort.Slice(g.Inputs, func(i, j int) bool { return g.Inputs[i].String() < g.Inputs[j].String() })
			groupAt[key] = g
			order = append(order, key)
		}
		g.Members = append(g.Members, p)
	}

	// Merge proper-subset groups into their smallest superset.
	subsetOf := func(a, b *Group) bool {
		if len(a.Inputs) >= len(b.Inputs) {
			return false
		}
		have := map[string]bool{}
		for _, el := range b.Inputs {
			have[el.String()] = true
		}
		for _, el := range a.Inputs {
			if !have[el.String()] {
				return false
			}
		}
		return true
	}
	merged := map[string]bool{}
	// Process in increasing input-set size so chains collapse upward.
	sort.SliceStable(order, func(i, j int) bool {
		return len(groupAt[order[i]].Inputs) < len(groupAt[order[j]].Inputs)
	})
	for _, key := range order {
		g := groupAt[key]
		if merged[key] {
			continue
		}
		var best *Group
		for _, key2 := range order {
			if key2 == key || merged[key2] {
				continue
			}
			h := groupAt[key2]
			if subsetOf(g, h) && (best == nil || len(h.Inputs) < len(best.Inputs)) {
				best = h
			}
		}
		if best != nil {
			best.Members = append(best.Members, g.Members...)
			merged[key] = true
		}
	}

	// Finalize groups: sort members, find def members, build key plans.
	n.GroupOf = make([]int, len(n.Stmts))
	for _, key := range order {
		if merged[key] {
			continue
		}
		g := groupAt[key]
		sort.Ints(g.Members)
		g.valIdx = make([]int32, len(n.Stmts))
		for i := range g.valIdx {
			g.valIdx[i] = -1
		}
		for _, pos := range g.Members {
			n.GroupOf[pos] = len(n.Groups)
			if n.Stmts[pos].Op.HasDef() && n.Stmts[pos].Dest != ir.NoReg {
				g.valIdx[pos] = int32(len(g.ValMembers))
				g.ValMembers = append(g.ValMembers, pos)
				g.UVals = append(g.UVals, nil)
			}
		}
		for _, el := range g.Inputs {
			if el.Src >= 0 {
				g.keyPlan = append(g.keyPlan, keySource{pos: el.Src, ddIdx: -1})
			} else {
				u, ok := extUser[el.Ext]
				if !ok {
					panic(fmt.Sprintf("core: no direct user for input %s in node", el))
				}
				g.keyPlan = append(g.keyPlan, keySource{pos: u.pos, ddIdx: u.ddIdx})
			}
		}
		n.Groups = append(n.Groups, g)
	}
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
	for i, e := range w.Edges {
		if !b.ramps[i].stored {
			b.materialise(i, 0, 0)
		}
		dst := w.Nodes[e.DstNode]
		dst.InEdges[e.DstPos] = append(dst.InEdges[e.DstPos], i)
		src := w.Nodes[e.SrcNode]
		src.OutEdges[e.SrcPos] = append(src.OutEdges[e.SrcPos], i)
	}
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

// Ensure the slice cursor satisfies both fast paths like stream cursors
// satisfy Seq + Seeker.
var _ Seq = (*sliceSeq)(nil)
var _ RandomAccess = (*sliceSeq)(nil)
var _ Seeker = (*sliceSeq)(nil)
var _ Seq = (stream.Cursor)(nil)
var _ Seeker = (stream.Cursor)(nil)
