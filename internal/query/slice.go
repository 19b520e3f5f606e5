package query

import (
	"fmt"
	"math/bits"
	"slices"

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

// BackwardSlice computes the backward WET slice of the given instance:
// every instance whose value or control outcome contributed (transitively)
// to it, via DD and CD edges. maxInstances bounds the work (0 = unbounded).
func BackwardSlice(w *core.WET, tier core.Tier, from Instance, maxInstances int) (*SliceResult, error) {
	return BackwardSliceOpts(w, tier, from, SliceOptions{MaxInstances: maxInstances})
}

// BackwardSliceOpts is BackwardSlice with full options, including the
// static-CD pruning oracle. Deferred-decode failures on a lazily loaded WET
// surface as a *stream.DecodeError, not a panic.
//
// Instances holds the criterion first and every other member in (Node, Ord,
// Pos) order. A capped slice is the criterion and the first MaxInstances-1
// instances the sweep reaches (see sweep): a function of the trace, the
// criterion and the cap alone, the same at either tier and however the trace
// was opened.
func BackwardSliceOpts(w *core.WET, tier core.Tier, from Instance, opts SliceOptions) (*SliceResult, error) {
	res, _, err := runSweep(w, tier, from, opts, true)
	return res, err
}

// ForwardSlice computes the forward WET slice: every instance whose
// computation was influenced by the given instance, ordered and capped as
// BackwardSliceOpts documents. Deferred-decode failures surface as a
// *stream.DecodeError, not a panic.
func ForwardSlice(w *core.WET, tier core.Tier, from Instance, maxInstances int) (*SliceResult, error) {
	res, _, err := runSweep(w, tier, from, SliceOptions{MaxInstances: maxInstances}, false)
	return res, err
}

// sweep is one slice traversal. Reached instances wait as pending bits of an
// instSet until they are expanded along their dependence edges, one node
// execution at a time.
//
// A backward sweep takes executions in descending timestamp order: always the
// latest one pending in any node (a k-way pick over the nodes holding some,
// as mergeSamples picks over occurrences). A dependence reaches back in time,
// so whatever an expansion finds lies below the sweep line: each node's
// executions, and with them the destination ordinals each edge is asked for,
// only descend, and an edge's window answers them in one backward pass over
// its labels. A forward sweep reads inverted edges (fanout), which do not care
// about order, and takes the latest pending execution of any one node.
//
// Nothing here depends on the tier or on how streams are stored, so neither
// does the order instances are reached in, which is what a cap cuts short.
type sweep struct {
	q    *qctx
	back bool
	opts SliceOptions
	set  *instSet
	live []*nodeSet // nodes holding pending instances
	fan  [][]uint64 // forward: inverted edges by edge index, built on first touch
	res  *SliceResult
}

// runSweep slices from one criterion and returns the slice, materialised
// once at its exact size, and the set holding its instances.
func runSweep(w *core.WET, tier core.Tier, from Instance, opts SliceOptions, back bool) (res *SliceResult, set *instSet, err error) {
	defer core.RecoverTyped(&err)
	if err := checkInstance(w, from); err != nil {
		return nil, nil, err
	}
	s := &sweep{q: newCtx(w, tier), back: back, opts: opts, set: newInstSet(w), res: &SliceResult{Criterion: from}}
	if !back {
		s.fan = make([][]uint64, len(w.Edges))
	}
	s.reach(from.Node, from.Pos, from.Ord)
	s.res.Edges = 0 // the criterion is reached along no edge
	for f := s.pick(); f != nil; f = s.pick() {
		// Expanding a position can make lower ones of the same execution pending.
		for f.top() == f.topOrd && !s.full() {
			s.expand(w.Nodes[f.id], f.popAt(f.topOrd), f.topOrd, f.topTS)
		}
	}
	s.res.Instances = append(make([]Instance, 0, s.set.n), from)
	s.set.each(func(in Instance) {
		if in != from {
			s.res.Instances = append(s.res.Instances, in)
		}
	})
	return s.res, s.set, nil
}

func (s *sweep) full() bool { return s.opts.MaxInstances > 0 && s.set.n >= s.opts.MaxInstances }

// pick returns the live node whose latest pending execution, f.topOrd, is to
// be expanded next: backward the one with the latest timestamp, forward any.
// It returns nil when nothing is pending or the slice is full. Timestamps
// are read through a window per node that follows the sweep down; only their
// order matters here, and a budgeted freeze's widened ones keep it.
func (s *sweep) pick() (best *nodeSet) {
	for i := len(s.live) - 1; i >= 0 && !s.full(); i-- {
		f := s.live[i]
		ord := f.top()
		if ord < 0 {
			f.live, f.topOrd = false, -1
			s.live[i] = s.live[len(s.live)-1]
			s.live = s.live[:len(s.live)-1]
			continue
		}
		if ord != f.topOrd && s.back {
			if f.ts.Len() == 0 {
				f.ts = core.NewWindow(s.q.w.ApproxTSSeq(s.q.w.Nodes[f.id], s.q.tier))
			}
			f.topTS = f.ts.At(ord, true)
		}
		if f.topOrd = ord; best == nil || f.topTS > best.topTS {
			best = f
		}
	}
	return best
}

// expand follows the dependence edges of one instance, executed at ts.
func (s *sweep) expand(n *core.Node, pos, ord int, ts uint32) {
	w := s.q.w
	edges := n.OutEdges[pos]
	if s.back {
		edges = n.InEdges[pos]
	}
	for _, ei := range edges {
		e := w.Edges[ei]
		switch {
		case !s.back && e.Inferable:
			s.reach(e.DstNode, e.DstPos, ord)
		case !s.back:
			f := s.fanout(ei)
			for i, _ := slices.BinarySearch(f, uint64(ord)<<32); i < len(f) && int(f[i]>>32) == ord; i++ {
				s.reach(e.DstNode, e.DstPos, int(uint32(f[i])))
			}
		case s.opts.cdPruned(w, e):
			s.res.PrunedCD++
		default:
			if sord := s.q.srcOrd(ei, ord, ts); sord >= 0 {
				s.reach(e.SrcNode, e.SrcPos, sord)
			}
		}
	}
}

// reach counts one traversed dependence instance and, if its far end is new,
// makes it pending. A full slice takes nothing more.
func (s *sweep) reach(node, pos, ord int) {
	if s.full() {
		return
	}
	s.res.Edges++
	if s.set.add(node, pos, ord, true) {
		if f := s.set.nodes[node]; !f.live {
			f.live = true
			s.live = append(s.live, f)
		}
	}
}

// fanout returns edge ei inverted for forward slicing: its (source,
// destination) ordinal pairs, packed and sorted by source, built from one
// pass over its labels on first touch.
func (s *sweep) fanout(ei int) []uint64 {
	if s.fan[ei] == nil {
		dseq, sseq := s.q.w.EdgeLabels(s.q.w.Edges[ei], s.q.tier)
		n := dseq.Len()
		lab, f := make([]uint32, 2*n), make([]uint64, n)
		dseq.NextN(lab[:n])
		sseq.NextN(lab[n:])
		for i := range f {
			f[i] = uint64(lab[n+i])<<32 | uint64(lab[i])
		}
		slices.Sort(f)
		s.fan[ei] = f
	}
	return s.fan[ei]
}

// srcOrd returns the source ordinal edge ei pairs with destination ordinal
// ord, or -1 when the edge did not fire at that execution, from the edge's
// windows (spawned on first touch). ts, the execution's timestamp or 0 if the
// caller has none, keys them by epoch. A sweep's asks mostly descend, so its
// asks of one edge read the labels in one backward pass.
func (q *qctx) srcOrd(ei, ord int, ts uint32) int {
	e := q.w.Edges[ei]
	if e.Inferable {
		return ord
	}
	if q.edges == nil {
		q.edges = make([]*[2]core.Window, len(q.w.Edges))
	}
	c := q.edges[ei]
	if c == nil {
		c = new([2]core.Window)
		c[0], c[1] = q.w.EdgeWindows(e, q.tier, ts > 0)
		q.edges[ei] = c
	}
	if i := c[0].Find(uint32(ord), ts, true); i >= 0 {
		return int(c[1].At(i, true))
	}
	return -1
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
// criteria from a point in time). Each occurrence is looked up as a walker
// looks up a node it holds no window for: on a segmented trace only the
// segment of ts's epoch is read, and an occurrence with none there is
// skipped undecoded. A statement id outside the program returns a
// *StmtError.
func InstanceOfTS(w *core.WET, tier core.Tier, stmtID int, ts uint32) (in Instance, err error) {
	defer core.RecoverTyped(&err)
	if err := checkStmt(w, stmtID); err != nil {
		return Instance{}, err
	}
	wk := Walker{w: w, tier: tier}
	for _, ref := range w.StmtOcc[stmtID] {
		if ord := wk.lookup(ref.Node, ts, false); ord >= 0 {
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
	opts := SliceOptions{MaxInstances: maxInstances}
	fwd, inFwd, err := runSweep(w, tier, from, opts, false)
	if err != nil {
		return nil, err
	}
	bwd, _, err := runSweep(w, tier, to, opts, true)
	if err != nil {
		return nil, err
	}
	res := &SliceResult{Criterion: to, Edges: fwd.Edges + bwd.Edges}
	for _, in := range bwd.Instances {
		if inFwd.has(in) {
			res.Instances = append(res.Instances, in)
		}
	}
	return res, nil
}

// DependenceChain walks a single dependence chain backwards from an
// instance: the first step follows the data dependence of operand opIdx, or
// the control dependence when opIdx < 0, and every later step operand 0. It
// records up to maxLen instances and ends early where the dependence did not
// fire. It is the paper's "chains of data dependences ... can all be easily
// found by traversing the WET" query.
func DependenceChain(w *core.WET, tier core.Tier, from Instance, opIdx, maxLen int) (chain []Instance, err error) {
	defer core.RecoverTyped(&err)
	if err := checkInstance(w, from); err != nil {
		return nil, err
	}
	q := newCtx(w, tier)
	chain = []Instance{from}
	cur := from
	for len(chain) < maxLen {
		next := Instance{Node: -1}
		for _, ei := range w.Nodes[cur.Node].InEdges[cur.Pos] {
			e := w.Edges[ei]
			if (e.Kind == core.CD) != (opIdx < 0) || (e.Kind == core.DD && e.OpIdx != opIdx) {
				continue
			}
			if sord := q.srcOrd(ei, cur.Ord, 0); sord >= 0 {
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

// instSet is a set of instances: per node a table of pages, each holding
// the position masks of pageOrds consecutive executions. Node entries and
// pages are allocated on first touch, so a slice capped at a few hundred
// instances — close together in time, as a sweep reaches them — costs a few
// pages however long the trace.
type instSet struct {
	w     *core.WET
	nodes []*nodeSet
	n     int // members
}

const pageOrds = 64

// instPage covers executions k*pageOrds … of a node. Execution r's masks are
// rows[2*words*r:]: words of member positions, then words of the members a
// sweep has reached and not yet expanded.
type instPage struct {
	rows []uint64
	any  uint64 // bit r: execution r has a pending position
}

// nodeSet is an instSet's share for one node, and a sweep's state for it.
type nodeSet struct {
	id, words, execs int
	pages            []*instPage
	hi               int // no page above hi holds a pending position

	live   bool        // listed in sweep.live
	topOrd int         // the latest pending execution when sweep.pick last looked (-1: none) …
	topTS  uint32      // … and its timestamp
	ts     core.Window // the node's timestamps, once Len > 0
}

func newInstSet(w *core.WET) *instSet {
	return &instSet{w: w, nodes: make([]*nodeSet, len(w.Nodes))}
}

// row returns the masks of (node, ord), allocating up to them when grow is
// set, or nil: the node or page is untouched, or the node never ran an
// ord-th time (a label from a damaged file names nothing).
func (s *instSet) row(node, ord int, grow bool) (f *nodeSet, pg *instPage, row []uint64) {
	if f = s.nodes[node]; f == nil && grow {
		n := s.w.Nodes[node]
		f = &nodeSet{id: node, words: (len(n.Stmts) + 63) / 64, execs: n.Execs, topOrd: -1,
			pages: make([]*instPage, (n.Execs+pageOrds-1)/pageOrds)}
		s.nodes[node] = f
	}
	if f == nil || uint(ord) >= uint(f.execs) {
		return nil, nil, nil
	}
	if pg = f.pages[ord/pageOrds]; pg == nil && grow {
		pg = &instPage{rows: make([]uint64, 2*f.words*pageOrds)}
		f.pages[ord/pageOrds] = pg
	}
	if pg == nil {
		return nil, nil, nil
	}
	return f, pg, pg.rows[2*f.words*(ord%pageOrds):][:2*f.words]
}

// add inserts (node, pos, ord), pending if pend is set, and reports whether
// it was new.
func (s *instSet) add(node, pos, ord int, pend bool) bool {
	f, pg, row := s.row(node, ord, true)
	if row == nil || row[pos/64]&(1<<(pos%64)) != 0 {
		return false
	}
	row[pos/64] |= 1 << (pos % 64)
	s.n++
	if pend {
		row[f.words+pos/64] |= 1 << (pos % 64)
		pg.any |= 1 << (ord % pageOrds)
		f.hi = max(f.hi, ord/pageOrds)
	}
	return true
}

func (s *instSet) has(in Instance) bool {
	_, _, row := s.row(in.Node, in.Ord, false)
	return row != nil && row[in.Pos/64]&(1<<(in.Pos%64)) != 0
}

// each calls f on every member in (Node, Ord, Pos) order.
func (s *instSet) each(f func(Instance)) {
	for node, ns := range s.nodes {
		for pi := 0; ns != nil && pi < len(ns.pages); pi++ {
			if ns.pages[pi] == nil {
				continue
			}
			for i, m := range ns.pages[pi].rows {
				if r := i / ns.words; r%2 == 0 { // a word of members
					for ; m != 0; m &= m - 1 {
						f(Instance{Node: node, Pos: i%ns.words*64 + bits.TrailingZeros64(m), Ord: pi*pageOrds + r/2})
					}
				}
			}
		}
	}
}

// top returns the node's latest pending execution, or -1.
func (f *nodeSet) top() int {
	for ; f.hi >= 0; f.hi-- {
		if pg := f.pages[f.hi]; pg != nil && pg.any != 0 {
			return f.hi*pageOrds + 63 - bits.LeadingZeros64(pg.any)
		}
	}
	f.hi = 0
	return -1
}

// popAt removes and returns the last pending position of execution ord,
// which has one.
func (f *nodeSet) popAt(ord int) int {
	pg := f.pages[ord/pageOrds]
	pend := pg.rows[2*f.words*(ord%pageOrds)+f.words:][:f.words]
	wi := f.words - 1
	for pend[wi] == 0 {
		wi--
	}
	pos := wi*64 + 63 - bits.LeadingZeros64(pend[wi])
	for pend[wi] &^= 1 << (pos % 64); wi >= 0 && pend[wi] == 0; wi-- {
	}
	if wi < 0 {
		pg.any &^= 1 << (ord % pageOrds)
	}
	return pos
}
