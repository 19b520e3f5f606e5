package query

import (
	"fmt"
	"math"
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
	return runSweep(w, tier, from, opts)
}

// ForwardSlice computes the forward WET slice: every instance whose
// computation was influenced by the given instance, ordered as BackwardSliceOpts
// documents; capped, the criterion and the maxInstances-1 members that executed
// first, by (timestamp, position). Decode failures surface as *stream.DecodeError.
func ForwardSlice(w *core.WET, tier core.Tier, from Instance, maxInstances int) (*SliceResult, error) {
	q := acquire(w, tier)
	defer q.release()
	return runWalk(q, from, maxInstances)
}

// sweep is one backward slice traversal. Reached instances wait as pending
// bits of an instSet until they are expanded along their dependence edges,
// one node execution at a time.
//
// The sweep takes executions in descending timestamp order: always the latest
// one pending in any node (a k-way pick over the nodes holding some, as
// mergeSamples picks over occurrences). A dependence reaches back in time, so
// whatever an expansion finds lies below the sweep line: each node's
// executions, and with them the destination ordinals each edge is asked for,
// only descend, and an edge's window answers them in one backward pass over
// its labels.
type sweep struct {
	q    *qctx
	opts SliceOptions
	set  *instSet
	live []*nodeSet // nodes holding pending instances
	hits []uint64   // an expansion's hits: edge index << 32 | source ordinal
	res  *SliceResult
}

// runSweep slices backward from one criterion and returns the slice,
// materialised once at its exact size.
func runSweep(w *core.WET, tier core.Tier, from Instance, opts SliceOptions) (res *SliceResult, err error) {
	defer core.RecoverTyped(&err)
	if err := checkInstance(w, from); err != nil {
		return nil, err
	}
	q := acquire(w, tier)
	defer q.release()
	s := &q.sweep
	s.q, s.opts, s.set, s.res = q, opts, &q.set, &SliceResult{Criterion: from}
	s.reach(from.Node, from.Pos, from.Ord)
	s.res.Edges = 0 // the criterion is reached along no edge
	for f := s.pick(); f != nil; f = s.pick() {
		// Expanding a position can make lower ones of the same execution pending.
		for f.top() == f.topOrd && !s.full() {
			s.expand(w.Nodes[f.id], f.popAt(f.topOrd), f.topOrd, f.topTS)
		}
	}
	return s.set.result(s.res), nil
}

// result fills res.Instances: the criterion, then the rest in (Node, Ord, Pos) order.
func (s *instSet) result(res *SliceResult) *SliceResult {
	res.Instances = append(make([]Instance, 0, s.n), res.Criterion)
	s.each(func(in Instance) {
		if in != res.Criterion {
			res.Instances = append(res.Instances, in)
		}
	})
	return res
}

func (s *sweep) full() bool { return s.opts.MaxInstances > 0 && s.set.n >= s.opts.MaxInstances }

// pick returns the live node whose latest pending execution, f.topOrd, has
// the latest timestamp: the next to be expanded. It returns nil when nothing
// is pending or the slice is full. Timestamps are read through a window per
// node that follows the sweep down.
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
		if ord != f.topOrd {
			if f.ts == nil {
				f.ts = s.q.nodes.take()
				f.ts.Reuse(s.q.w.TSWindow(s.q.w.Nodes[f.id], s.q.tier))
			}
			f.topTS = f.ts.At(ord, true)
		}
		if f.topOrd = ord; best == nil || f.topTS > best.topTS {
			best = f
		}
	}
	return best
}

// expand follows the dependence edges into one instance, executed at ts.
// InEdges lists an operand's edges together, and an execution has at most
// one source per operand: once an edge names it, the operand's other edges
// are not asked. Hits are reached in edge-index order, so what a capped
// slice keeps does not depend on the ask order; every pruned CD edge counts.
func (s *sweep) expand(n *core.Node, pos, ord int, ts uint32) {
	w := s.q.w
	hits, named := s.hits[:0], math.MinInt // named: the operand last found a source
	for _, ei := range n.InEdges[pos] {
		if e := w.Edges[ei]; s.opts.cdPruned(w, e) {
			s.res.PrunedCD++
		} else if e.OpIdx != named {
			if sord := s.q.srcOrd(ei, ord, ts); sord >= 0 {
				hits, named = append(hits, uint64(ei)<<32|uint64(sord)), e.OpIdx
			}
		}
	}
	slices.Sort(hits)
	for _, h := range hits {
		e := w.Edges[h>>32]
		s.reach(e.SrcNode, e.SrcPos, int(uint32(h)))
	}
	s.hits = hits
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

// fwalk is one forward slice: a walk of the control flow forward in time from
// the criterion, settling each execution's members by position. Sources execute
// before destinations, so members are found in (timestamp, position) order and
// nothing is inverted. It ends at the cap, the trace's end, or no labels left.
type fwalk struct {
	wk        Walker
	set       *instSet
	res       *SliceResult
	max, live int // the cap; the readers that may have labels left
}

// reader reads an edge's labels: label k of the run held, the at+k-th, is
// (buf[k], buf[len(buf)/2+k]), its source read only from label src on.
type reader struct {
	e                *core.Edge
	dseq, sseq       core.Seq
	buf              []uint32
	at, src, k, next int // next is label k's destination: -1 before placing
}

// runWalk slices forward from one criterion into q's instance set.
func runWalk(q *qctx, from Instance, maxInstances int) (res *SliceResult, err error) {
	defer core.RecoverTyped(&err)
	if err := checkInstance(q.w, from); err != nil {
		return nil, err
	}
	s := &fwalk{wk: q.walker(), max: maxInstances, res: &SliceResult{Criterion: from}, set: &q.set}
	s.set.walk = true
	ts := s.wk.wins.put(from.Node)
	ts.Reuse(q.w.TSWindow(q.w.Nodes[from.Node], q.tier))
	s.wk.Node, s.wk.Ord, s.wk.ts = from.Node, from.Ord, ts.At(from.Ord, false)
	s.set.node(from.Node).bits[from.Pos/64] |= 1 << (from.Pos % 64)
	for s.visit(s.set.nodes[from.Node]); s.live > 0 && !s.full() && s.wk.Forward(); {
		if f := s.set.nodes[s.wk.Node]; f != nil && f.next <= s.wk.Ord {
			s.visit(f)
		}
	}
	return s.set.result(s.res), nil
}

func (s *fwalk) full() bool { return s.max > 0 && s.set.n >= s.max }

// visit settles f's execution the walker is on, position by position: a new
// member follows its inferable out-edges at once; a position's first gives the
// others readers.
func (s *fwalk) visit(f *nodeSet) {
	d := s.wk.Ord
	f.next = math.MaxInt // an edge activated into f meanwhile lowers it again
	for q := f.nextPos(0); q >= 0 && !s.full(); q = f.nextPos(q + 1) {
		hit := f.bits[q/64]&(1<<(q%64)) != 0 // an inferable edge reached q
		f.bits[q/64] &^= 1 << (q % 64)
		for _, r := range f.in[q] {
			for ; r.next <= d; s.read(r, d) {
				if r.next == d && s.set.nodes[r.e.SrcNode].has(r.e.SrcPos, r.source()) {
					s.res.Edges++
					hit = true
				}
			}
			f.next = min(f.next, r.next)
		}
		if hit && s.set.add(f.id, q, d, false) {
			first := f.bits[2*f.words+q/64]&(1<<(q%64)) == 0
			f.bits[2*f.words+q/64] |= 1 << (q % 64)
			for _, ei := range s.wk.w.Nodes[f.id].OutEdges[q] {
				switch e := s.wk.w.Edges[ei]; {
				case e.Inferable && !s.full():
					s.res.Edges++
					f.bits[e.DstPos/64] |= 1 << (e.DstPos % 64)
				case !e.Inferable && first:
					g := s.set.node(e.DstNode)
					g.in[e.DstPos], g.next = append(g.in[e.DstPos], &reader{e: e, next: -1}), -1
					g.bits[g.words+e.DstPos/64] |= 1 << (e.DstPos % 64)
					s.live++
				}
			}
		}
	}
}

// nextPos returns the first position from q on with a reach or readers, or -1.
func (f *nodeSet) nextPos(q int) int {
	for ; q < 64*f.words; q = q/64*64 + 64 {
		if m := (f.bits[q/64] | f.bits[f.words+q/64]) >> (q % 64); m != 0 {
			return q + bits.TrailingZeros64(m)
		}
	}
	return -1
}

// read moves r to its next label at or above ordinal d, in runs of 8 labels
// doubling to WalkChunk, once placed up to a checkpoint interval before the
// first label that can name d (none below d-(execs-len): destinations rise by
// one a label at least). An exhausted r holds one label past every ordinal.
func (s *fwalk) read(r *reader, d int) {
	if r.buf == nil {
		r.dseq, r.sseq = s.wk.w.EdgeLabels(r.e, s.wk.tier)
		lo := max(d-(s.wk.w.Nodes[r.e.DstNode].Execs-r.dseq.Len()), 0)
		r.at, r.k, r.buf = core.Ceil(r.dseq, uint32(d), lo, s.wk.ts), -1, make([]uint32, 0, 2*core.WalkChunk)
	}
	for r.next = -1; r.next < d; r.next = int(r.buf[r.k]) {
		if r.k++; r.k == len(r.buf)/2 {
			n := r.dseq.NextN(r.buf[:min(max(len(r.buf), 8), core.WalkChunk)])
			if r.at, r.k, r.src, r.buf = r.at+r.k, 0, n, r.buf[:2*n]; n == 0 {
				r.buf, r.src, s.live = append(r.buf, math.MaxUint32, 0), 1, s.live-1
			}
		}
	}
}

// source returns label k's source, reading the run's sources at the first ask.
func (r *reader) source() int {
	if r.k < r.src {
		r.readSources()
	}
	return int(r.buf[len(r.buf)/2+r.k])
}

// readSources reads the run's sources from label k, or from where the source
// cursor stands in the run before k.
func (r *reader) readSources() {
	n := len(r.buf) / 2
	if r.src = r.sseq.Pos() - r.at; r.src < 0 || r.src > r.k {
		r.src = r.k
		r.sseq.Seek(r.at + r.k)
	}
	r.sseq.NextN(r.buf[n+r.src : 2*n])
}

// srcOrd returns the source ordinal edge ei pairs with destination ordinal
// ord, or -1 when the edge did not fire at that execution, from the edge's
// windows (placed on first touch). ts, the execution's timestamp or 0 if the
// caller has none, keys them by epoch. A sweep's asks mostly descend, so its
// asks of one edge read the labels in one backward pass.
func (q *qctx) srcOrd(ei, ord int, ts uint32) int {
	e := q.w.Edges[ei]
	if e.Inferable {
		return ord
	}
	c := q.edges.slot[ei]
	if c == nil {
		dst, src := q.w.EdgeWindows(e, q.tier, ts > 0)
		c = q.edges.put(ei)
		c[0].Reuse(dst)
		c[1].Reuse(src)
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
	q := acquire(w, tier)
	defer q.release()
	wk := q.walker()
	for _, ref := range w.StmtOcc[stmtID] {
		if ord := wk.lookup(ref.Node, ts, false); ord >= 0 {
			return Instance{Node: ref.Node, Pos: ref.Pos, Ord: ord}, nil
		}
	}
	return Instance{}, fmt.Errorf("query: statement %d did not execute at ts %d", stmtID, ts)
}

// Chop computes the intersection of the forward slice of `from` and the
// backward slice of `to`, each capped as ForwardSlice and BackwardSliceOpts
// document: the instances through which `from` influenced `to`, the classic
// "how did THIS value reach THAT one?" from dependence labels alone.
func Chop(w *core.WET, tier core.Tier, from, to Instance, maxInstances int) (*SliceResult, error) {
	q := acquire(w, tier)
	defer q.release()
	fwd, err := runWalk(q, from, maxInstances)
	if err != nil {
		return nil, err
	}
	bwd, err := runSweep(w, tier, to, SliceOptions{MaxInstances: maxInstances})
	if err != nil {
		return nil, err
	}
	res := &SliceResult{Criterion: to, Edges: fwd.Edges + bwd.Edges}
	for _, in := range bwd.Instances {
		if q.set.has(in) {
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
	q := acquire(w, tier)
	defer q.release()
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
// the position masks of pageOrds consecutive executions. Node shares and
// pages are handed out on first touch, so a slice capped at a few hundred
// instances — close together in time, as a sweep reaches them — costs a few
// pages however long the trace. A pooled set (a qctx's) keeps its shares
// and pages between queries: release zeroes the pages the query touched and
// files them by width for the next, and drops a walk's readers.
type instSet struct {
	w      *core.WET
	nodes  []*nodeSet // by node id
	shares []*nodeSet // shares[:used] are nodes' shares; the rest wait with their buffers
	used   int
	free   [][]*instPage // zeroed pages by words, up to the widest share handed out
	n      int           // members
	walk   bool          // a forward walk's: every node holds its positions' states
}

const pageOrds = 64

// instPage covers executions k*pageOrds … of a node. Execution r's masks are
// rows[2*words*r:]: words of member positions, then words of the members a
// sweep has reached and not yet expanded.
type instPage struct {
	rows []uint64
	any  uint64 // bit r: execution r has a pending position
}

// nodeSet is an instSet's share for one node, and a slice's state for it.
type nodeSet struct {
	id, words, execs int
	pages            []*instPage
	held             []int32 // the indexes of pages not nil
	hi               int     // no page above hi holds a pending position

	live   bool         // listed in sweep.live
	topOrd int          // the latest pending execution when sweep.pick last looked (-1: none) …
	topTS  uint32       // … and its timestamp
	ts     *core.Window // the node's timestamps, from q.nodes once pick reads one

	in   [][]*reader // a walk's readers of active in-edges, by position
	bits []uint64    // a walk's positions: reached by an inferable edge this execution, with readers, holding a member
	next int         // no reader fires below this ordinal (-1: one is not yet placed)
}

// bind makes the empty set index w's nodes.
func (s *instSet) bind(w *core.WET) {
	s.w = w
	if cap(s.nodes) < len(w.Nodes) {
		s.nodes = make([]*nodeSet, len(w.Nodes))
	}
	s.nodes = s.nodes[:len(w.Nodes)]
}

// release empties the set, keeping its shares and its pages, zeroed.
func (s *instSet) release() {
	for _, f := range s.shares[:s.used] {
		s.nodes[f.id], f.in, f.bits = nil, nil, nil
		for _, i := range f.held {
			pg := f.pages[i]
			clear(pg.rows)
			pg.any, f.pages[i] = 0, nil
			s.free[f.words] = append(s.free[f.words], pg)
		}
		f.held = f.held[:0]
	}
	s.w, s.used, s.n, s.walk = nil, 0, 0, false
}

// node returns the share of node id, handing it out on first touch.
func (s *instSet) node(id int) *nodeSet {
	if f := s.nodes[id]; f != nil {
		return f
	}
	if s.used == len(s.shares) {
		s.shares = append(s.shares, new(nodeSet))
	}
	f, n := s.shares[s.used], s.w.Nodes[id]
	s.used++
	pages := f.pages // nil up to its capacity
	if np := (n.Execs + pageOrds - 1) / pageOrds; cap(pages) < np {
		pages = make([]*instPage, np)
	} else {
		pages = pages[:np]
	}
	*f = nodeSet{id: id, words: (len(n.Stmts) + 63) / 64, execs: n.Execs, topOrd: -1,
		next: math.MaxInt, pages: pages, held: f.held}
	if s.walk {
		f.in, f.bits = make([][]*reader, len(n.Stmts)), make([]uint64, 3*f.words)
	}
	for len(s.free) <= f.words {
		s.free = append(s.free, nil)
	}
	s.nodes[id] = f
	return f
}

// row returns the masks of (node, ord), allocating up to them when grow is
// set, or nil: the node or page is untouched, or the node never ran an
// ord-th time (a label from a damaged file names nothing).
func (s *instSet) row(node, ord int, grow bool) (f *nodeSet, pg *instPage, row []uint64) {
	if f = s.nodes[node]; f == nil && grow {
		f = s.node(node)
	}
	if f == nil || uint(ord) >= uint(f.execs) {
		return nil, nil, nil
	}
	if pg = f.pages[ord/pageOrds]; pg == nil && grow {
		if free := s.free[f.words]; len(free) > 0 {
			pg, s.free[f.words] = free[len(free)-1], free[:len(free)-1]
		} else {
			pg = &instPage{rows: make([]uint64, 2*f.words*pageOrds)}
		}
		f.pages[ord/pageOrds] = pg
		f.held = append(f.held, int32(ord/pageOrds))
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

func (f *nodeSet) has(pos, ord int) bool {
	i := ord / pageOrds
	return uint(i) < uint(len(f.pages)) && f.pages[i] != nil && f.pages[i].rows[2*f.words*(ord%pageOrds)+pos/64]&(1<<(pos%64)) != 0
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
