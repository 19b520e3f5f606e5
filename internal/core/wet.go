// Package core implements the paper's primary contribution: the Whole
// Execution Trace (WET) — a static program representation (with Ball–Larus
// paths as nodes) labeled with the complete dynamic profile: timestamps,
// values, and data/control dependence instances — together with the two-tier
// compression strategy of §3 (customized) and §4 (generic bidirectional
// stream compression).
package core

import (
	"fmt"

	"wet/internal/interp"
	"wet/internal/ir"
	"wet/internal/stream"
	"wet/internal/trace"
)

// Tier selects which representation a query reads.
type Tier int

const (
	// Tier1 reads the customized-compressed (but not stream-compressed)
	// labels: plain slices.
	Tier1 Tier = 1
	// Tier2 reads the fully compressed labels through bidirectional streams.
	Tier2 Tier = 2
)

func (t Tier) String() string {
	if t == Tier1 {
		return "tier-1"
	}
	return "tier-2"
}

// StmtRef locates a statement occurrence inside a WET node: the Pos-th
// statement of node Node. A static statement can occur in several nodes
// (one per Ball–Larus path containing its block).
type StmtRef struct {
	Node int
	Pos  int
}

// EdgeKind distinguishes data and control dependence edges.
type EdgeKind uint8

const (
	// DD is a data dependence edge.
	DD EdgeKind = iota
	// CD is a control dependence edge.
	CD
)

func (k EdgeKind) String() string {
	if k == DD {
		return "DD"
	}
	return "CD"
}

// Edge is a dependence edge between statement occurrences, labeled with a
// sequence of <t_dst, t_src> pairs in *local* timestamps (the paper's
// space-saving choice): the ordinal of the node execution on each side.
type Edge struct {
	Kind            EdgeKind
	SrcNode, SrcPos int
	DstNode, DstPos int
	OpIdx           int // destination operand index (DD); -1 for CD

	// Tier-1 labels (nil when Inferable or shared).
	DstOrd, SrcOrd []uint32
	// Count is the number of dynamic instances of this edge.
	Count int

	// Inferable marks local edges whose labels were dropped because every
	// instance is <t,t> within one node execution and the edge fires on
	// every execution (paper §3.3): the labels are implied by the node.
	Inferable bool
	// SharedWith >= 0 names the edge whose identical label sequence this
	// edge reuses (paper §3.3, label sharing across edge groups).
	SharedWith int

	// Dropped marks an edge whose label streams were discarded by a
	// byte-budgeted freeze (directly, or because its shared representative
	// was). EdgeLabels on a dropped edge panics with *CapabilityError; the
	// drop is recorded in the WET's FidelityReport.
	Dropped bool

	// Tier-2 label streams (nil when Inferable or shared).
	DstS, SrcS stream.Stream

	// Segs holds the per-epoch label segments of a streamed (segmented)
	// WET; nil on single-epoch WETs and on whole-run Inferable edges.
	Segs []*EdgeSeg
}

// InputElem is one element of a group's input set: either a register value
// flowing into the node (Ext) or the result of an input-class statement
// (load / input) inside the node (Src, a node position).
type InputElem struct {
	Ext ir.Reg // valid when Src < 0
	Src int    // node position of the input statement, or -1
}

func (e InputElem) String() string {
	if e.Src >= 0 {
		return fmt.Sprintf("src@%d", e.Src)
	}
	return fmt.Sprintf("ext:r%d", e.Ext)
}

// keySource tells the builder where to pick up one input element's value at
// run time.
type keySource struct {
	pos   int // node position of the statement to read from
	ddIdx int // index into that statement's ddVals, or -1 to use its result
}

// Group is a tier-1 value-compression group (paper §3.2): statements that
// depend on the same set of inputs share one Pattern of indices into
// per-statement unique-value arrays (UVals).
type Group struct {
	Members []int       // node positions, ascending
	Inputs  []InputElem // canonical, sorted

	keyPlan []keySource

	// ValMembers are the members with a def port, in ascending position;
	// UVals[i] holds the unique values of ValMembers[i].
	ValMembers []int
	UVals      [][]uint32

	// Pattern[k] indexes UVals[*] for the node's k-th execution.
	Pattern []uint32
	// keys numbers the distinct input tuples; the builder makes it on the
	// group's first execution, so restored groups have none.
	keys *tupleTable
	// checkVals retains every unique value under Builder.CheckDeterminism:
	// the streaming pipeline seals UVals away per epoch, so the invariant
	// re-verification needs its own globally indexed copy. Nil otherwise.
	checkVals [][]uint32
	// restoredKeys carries the unique-key count for deserialized groups,
	// whose tuples are not persisted.
	restoredKeys int

	// Tier-2 streams.
	PatternS stream.Stream
	UValS    []stream.Stream

	// Per-epoch segments of a streamed WET (see segment.go). Pattern
	// entries stay run-global indexes; UValSegs[i] concatenates to the
	// run-global discovery order of ValMembers[i]'s unique values.
	PatSegs  []*LabelSeg
	UValSegs [][]*LabelSeg

	// valIdx maps a node position to its ValMembers index (-1 when the
	// statement has no def port), making ValMemberIndex O(1). Built by
	// formGroups, so it exists on restored WETs too.
	valIdx []int32

	// Dropped marks a group whose value streams were discarded by a
	// byte-budgeted freeze. PatternSeq/UValSeq on a dropped group panic
	// with *CapabilityError; the drop is recorded in the WET's
	// FidelityReport.
	Dropped bool
}

// UniqueKeys returns the number of distinct input tuples observed.
func (g *Group) UniqueKeys() int {
	if g.keys == nil {
		return g.restoredKeys
	}
	return int(g.keys.n)
}

// Node is a WET node: one Ball–Larus path of one function, labeled with its
// execution timestamps and, through Groups, the values produced by its
// statements.
type Node struct {
	ID     int
	Fn     int
	PathID int64
	Blocks []int
	Stmts  []*ir.Stmt

	Execs int
	// TS holds the global timestamp of each execution (tier-1).
	TS []uint32
	// TSS is the tier-2 compressed timestamp stream.
	TSS stream.Stream
	// TSSegs holds the per-epoch timestamp segments of a streamed WET
	// (stored epoch-local; global = epoch*EpochTS + local).
	TSSegs []*LabelSeg
	// sealedExecs is the execution count already sealed into segments
	// (builder-only watermark for per-epoch edge inference).
	sealedExecs int

	Groups  []*Group
	GroupOf []int // per position

	// CFNext/CFPrev are the node-level control flow edges observed at run
	// time (which node executed at t+1 / t-1).
	CFNext, CFPrev []int

	// InEdges/OutEdges list indices into WET.Edges per position, in ask order
	// (WET.orderInEdges) and in index order.
	InEdges, OutEdges [][]int
}

// PosOf returns the node position of static statement id, or -1.
func (n *Node) PosOf(stmtID int) int {
	for p, s := range n.Stmts {
		if s.ID == stmtID {
			return p
		}
	}
	return -1
}

// WET is the whole execution trace of one program run.
type WET struct {
	Prog   *ir.Program
	Static *interp.Static

	Nodes []*Node
	Edges []*Edge

	// StmtOcc maps a static statement id to its occurrences.
	StmtOcc [][]StmtRef

	// Raw holds the dynamic counts defining the original WET size.
	Raw trace.RawStats

	// Time is the number of timestamps issued (path executions); timestamps
	// run 1..Time.
	Time uint32
	// FirstNode/LastNode are the nodes holding timestamps 1 and Time.
	FirstNode, LastNode int

	// EpochTS is the epoch size (timestamps per epoch) of a streamed WET;
	// 0 means single-epoch. Epochs is the number of epochs sealed.
	EpochTS uint32
	Epochs  int

	// Conc holds the concurrency streams of a multi-threaded run (conc.go);
	// nil on single-threaded traces, whose representation and serialized
	// bytes are unchanged by the concurrency extension.
	Conc *Conc

	// Fidelity records what a byte-budgeted freeze kept, degraded, and
	// dropped; nil when no ByteBudget was set.
	Fidelity *FidelityReport

	frozen bool
	report *SizeReport

	// seek aggregates cursor seek costs across all of this WET's streams
	// (AttachSeekCounters); nil until attached.
	seek *stream.SeekCounters
}

// Segmented reports whether the dynamic profile is stored in per-epoch
// segments (built by the streaming pipeline or loaded from a v4 file).
func (w *WET) Segmented() bool { return w.EpochTS > 0 }

// NodeOf returns the node for (fn, pathID), or nil.
func (w *WET) NodeOf(fn int, pathID int64) *Node {
	for _, n := range w.Nodes {
		if n.Fn == fn && n.PathID == pathID {
			return n
		}
	}
	return nil
}

// Frozen reports whether FreezeErr has run (tier-2 streams are available).
func (w *WET) Frozen() bool { return w.frozen }

// Seq is a detached bidirectional cursor over one label sequence: slice
// cursors at tier 1, stream cursors at tier 2, federated cursors over
// segments. Seek(i) places it so Next returns element i (O(K) steps from a
// stream checkpoint). NextN fills dst[i] with element Pos()+i and advances;
// PrevN fills dst[i] with element Pos()-1-i and retreats; both return the
// count read, and are the fast path. Every factory call (TSSeq, PatternSeq,
// UValSeq, EdgeLabels) returns a FRESH cursor sharing nothing mutable, so
// any number may traverse one frozen WET concurrently; each is confined to
// one goroutine.
type Seq interface {
	Len() int
	Pos() int
	Next() uint32
	Prev() uint32
	Seek(i int)
	NextN(dst []uint32) int
	PrevN(dst []uint32) int
}

// RandomAccess is the O(1) fast path of a tier-1 Seq, whose labels are
// plain arrays; a tier-2 cursor's checkpointed seek costs O(K) steps (the
// asymmetry the paper's tier-1-vs-tier-2 response times measure).
type RandomAccess interface {
	At(i int) uint32
}

// sliceSeq adapts a []uint32 to Seq.
type sliceSeq struct {
	v   []uint32
	pos int
}

// At implements RandomAccess without disturbing the cursor.
func (s *sliceSeq) At(i int) uint32 { return s.v[i] }

func (s *sliceSeq) Seek(i int) {
	if i < 0 || i > len(s.v) {
		panic(fmt.Sprintf("core: seek to %d outside [0,%d]", i, len(s.v)))
	}
	s.pos = i
}

func (s *sliceSeq) Len() int { return len(s.v) }
func (s *sliceSeq) Pos() int { return s.pos }

func (s *sliceSeq) Next() uint32 {
	if s.pos >= len(s.v) {
		panic("core: Seq Next past end")
	}
	x := s.v[s.pos]
	s.pos++
	return x
}

func (s *sliceSeq) Prev() uint32 {
	if s.pos == 0 {
		panic("core: Seq Prev past start")
	}
	s.pos--
	return s.v[s.pos]
}

func (s *sliceSeq) NextN(dst []uint32) int {
	n := copy(dst, s.v[s.pos:])
	s.pos += n
	return n
}

func (s *sliceSeq) PrevN(dst []uint32) int {
	n := s.pos
	if n > len(dst) {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		dst[i] = s.v[s.pos-1-i]
	}
	s.pos -= n
	return n
}

// newSeq builds one fresh detached cursor over either representation:
// tier-1 wraps the plain slice, tier-2 spawns a stream cursor carrying its
// own predictor tables. No state is shared with any previous cursor. A
// tier-1 ask where there is no slice panics with *CapabilityError
// (CapTier1): only a single-epoch build keeps tier 1.
func newSeq(sl []uint32, st stream.Stream, tier Tier) Seq {
	if tier == Tier2 {
		if st == nil {
			panic("core: tier-2 requested before Freeze")
		}
		return st.NewCursor()
	}
	if sl == nil {
		panic(&CapabilityError{Capability: CapTier1,
			Detail: "a streamed build or an opened file keeps tier 2 only"})
	}
	return &sliceSeq{v: sl}
}

// TSSeq returns a fresh cursor over the timestamp sequence of node n at the
// given tier. On a segmented WET the tier-2 cursor federates the per-epoch
// segments (re-based to global time); tier-1 reads the builder's slices,
// which only a single-epoch build keeps.
func (w *WET) TSSeq(n *Node, tier Tier) Seq {
	if tier == Tier2 && n.TSSegs != nil {
		return newFedSeq(parts{wet: w, segs: &n.TSSegs, stride: w.EpochTS})
	}
	return newSeq(n.TS, n.TSS, tier)
}

// EdgeLabels returns fresh cursors over the (dst, src) local-timestamp
// label sequences of e. For shared edges the representative's labels are
// read; Inferable edges have implicit labels and return (nil, nil). On a
// segmented WET the tier-2 cursors federate the per-epoch segments,
// synthesizing inferable segments and resolving per-segment sharing.
func (w *WET) EdgeLabels(e *Edge, tier Tier) (dst, src Seq) {
	if e.Inferable {
		return nil, nil
	}
	if e.Dropped {
		panic(&CapabilityError{Capability: CapDependences,
			Detail: fmt.Sprintf("labels of edge %s dropped by a byte-budgeted freeze", e.Kind)})
	}
	if tier == Tier2 && e.Segs != nil {
		return newFedSeq(parts{wet: w, edge: e}), newFedSeq(parts{wet: w, edge: e, src: true})
	}
	if e.SharedWith >= 0 {
		e = w.Edges[e.SharedWith]
		if e.Dropped {
			panic(&CapabilityError{Capability: CapDependences,
				Detail: "shared label representative dropped by a byte-budgeted freeze"})
		}
	}
	return newSeq(e.DstOrd, e.DstS, tier), newSeq(e.SrcOrd, e.SrcS, tier)
}

// PatternSeq returns a fresh cursor over group g's pattern sequence at the
// given tier. On a dropped group (byte-budgeted freeze) it panics with
// *CapabilityError.
func (w *WET) PatternSeq(g *Group, tier Tier) Seq {
	if g.Dropped {
		panic(&CapabilityError{Capability: CapValues,
			Detail: "value group streams dropped by a byte-budgeted freeze"})
	}
	if tier == Tier2 && g.PatSegs != nil {
		return newFedSeq(parts{segs: &g.PatSegs})
	}
	return newSeq(g.Pattern, g.PatternS, tier)
}

// UValSeq returns a fresh cursor over the unique-value sequence for
// g.ValMembers[i]. On a dropped group (byte-budgeted freeze) it panics
// with *CapabilityError.
func (w *WET) UValSeq(g *Group, i int, tier Tier) Seq {
	if g.Dropped {
		panic(&CapabilityError{Capability: CapValues,
			Detail: "value group streams dropped by a byte-budgeted freeze"})
	}
	if tier == Tier2 && g.UValSegs != nil {
		return newFedSeq(parts{segs: &g.UValSegs[i]})
	}
	return newSeq(at(g.UVals, i), at(g.UValS, i), tier)
}

// at is xs[i], or the zero value past the end of xs.
func at[T any](xs []T, i int) (zero T) {
	if i < len(xs) {
		return xs[i]
	}
	return zero
}

// ValMemberIndex returns the index of node position pos within g.ValMembers,
// or -1 when the statement at pos has no def port. O(1) via the position
// index formGroups precomputes.
func (g *Group) ValMemberIndex(pos int) int {
	if pos < 0 || pos >= len(g.valIdx) {
		return -1
	}
	return int(g.valIdx[pos])
}

// Value returns the value produced by the statement at (n, pos) during the
// node's ord-th execution, using the group pattern and unique values.
func (w *WET) Value(n *Node, pos, ord int, tier Tier) (int64, error) {
	g := n.Groups[n.GroupOf[pos]]
	mi := g.ValMemberIndex(pos)
	if mi < 0 {
		return 0, fmt.Errorf("core: statement %s has no def port", n.Stmts[pos])
	}
	if ord < 0 || ord >= n.Execs {
		return 0, fmt.Errorf("core: ordinal %d out of range [0,%d)", ord, n.Execs)
	}
	pat := w.PatternSeq(g, tier)
	idx := SeqAt(pat, ord)
	uv := w.UValSeq(g, mi, tier)
	return int64(int32(SeqAt(uv, int(idx)))), nil
}

// SeqAt reads element i of s: directly for random-access (tier-1) storage,
// through a checkpointed seek otherwise.
func SeqAt(s Seq, i int) uint32 {
	if ra, ok := s.(RandomAccess); ok {
		return ra.At(i)
	}
	s.Seek(i)
	return s.Next()
}
