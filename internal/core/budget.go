package core

import (
	"fmt"
	"sort"
	"sync"

	"wet/internal/faultpoint"
	"wet/internal/stream"
)

// fpBudgetPlan injects faults into the byte-budget planner, rehearsing a
// failed container measurement or degradation pass.
var fpBudgetPlan = faultpoint.New("core.budget.plan")

// containerMeasure serializes a frozen WET against a counting writer and
// returns the exact container size in bytes. It is registered by the wetio
// package's init (core cannot import wetio), so a ByteBudget freeze
// requires wetio to be linked in — every real entry point (the wet facade,
// the cmds) imports it.
var containerMeasure func(w *WET) (uint64, error)

// RegisterContainerMeasure installs the container-size oracle used by
// FreezeOptions.ByteBudget. wetio calls it from init.
func RegisterContainerMeasure(fn func(w *WET) (uint64, error)) { containerMeasure = fn }

// Query capabilities a trace can lack, as stable machine-readable
// identifiers (they appear in *CapabilityError; all but CapTier1, which no
// freeze trades, in FidelityReport JSON).
const (
	// CapValues: value queries on a dropped group (ValueTrace, Value,
	// invariance/stride profiles over its statements).
	CapValues = "values"
	// CapDependences: dependence traversals over a dropped edge (slicing,
	// chops, dependence chains that cross it).
	CapDependences = "dependence-labels"
	// CapExactTS: exact-timestamp queries (InstanceOfTS, slicing at a
	// timestamp) once node timestamps are widened to a sampled stride.
	CapExactTS = "exact-timestamps"
	// CapTier1: any query asked at Tier1 of a trace that keeps tier 2 only.
	// Tier 1 is what a single-epoch build keeps; a streamed build and an
	// opened file have tier 2 only.
	CapTier1 = "tier-1-labels"
)

// CapabilityError reports a query that needs data the trace does not hold:
// data a byte-budgeted freeze discarded, or tier-1 labels a streamed build
// or an opened file never keeps. It is panicked by the core cursor
// factories (TSSeq, PatternSeq, UValSeq, EdgeLabels, ConcSeq) and recovered
// into a returned error by RecoverTyped at the query entry points: a trace
// answers what it can and refuses — typed, never wrong — what it cannot.
type CapabilityError struct {
	// Capability is the Cap* identifier that was lost.
	Capability string `json:"capability"`
	Detail     string `json:"detail"`
}

func (e *CapabilityError) Error() string {
	return fmt.Sprintf("core: query needs %s: %s", e.Capability, e.Detail)
}

// RecoverTyped is the deferred guard of the query entry points: it converts
// the two typed panics a query can legitimately hit — a lazily loaded stream
// failing its deferred decode (*stream.DecodeError) and a cursor factory
// refusing data the trace does not hold (*CapabilityError) — into *err
// (unless *err is already set), re-raising anything else.
func RecoverTyped(err *error) {
	switch p := recover().(type) {
	case nil:
	case *stream.DecodeError:
		if *err == nil {
			*err = p
		}
	case *CapabilityError:
		if *err == nil {
			*err = p
		}
	default:
		panic(p)
	}
}

// BudgetError reports a ByteBudget no degradation ladder can reach: even
// with every value group and dependence edge dropped and timestamps at the
// widest stride, the container still exceeds the budget.
type BudgetError struct {
	// Budget is the requested ceiling, Floor the lossless container size,
	// Best the smallest size the full ladder reached.
	Budget, Floor, Best uint64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("core: byte budget %d B unreachable: lossless floor %d B, full degradation ladder still %d B", e.Budget, e.Floor, e.Best)
}

// DroppedGroup is one value group a budgeted freeze dropped.
type DroppedGroup struct {
	Node  int `json:"node"`
	Group int `json:"group"`
	// SavedBytes is the exact container bytes the drop shed.
	SavedBytes uint64 `json:"saved_bytes"`
}

// DroppedEdge is one dependence edge whose labels a budgeted freeze
// dropped (directly, or by cascade when its shared representative was).
type DroppedEdge struct {
	Edge       int    `json:"edge"`
	SavedBytes uint64 `json:"saved_bytes"`
}

// FidelityReport is the machine-readable account of a byte-budgeted
// freeze: what the budget was, where the lossless floor sat, what was
// kept, degraded, and dropped, and which query capabilities that cost.
// A budget at or above the floor yields a report with nothing degraded —
// and a container byte-identical to an unbudgeted freeze (the report is
// only serialized when Degraded).
type FidelityReport struct {
	// BudgetBytes is the requested ceiling, FloorBytes the lossless
	// container size, AchievedBytes the final container size.
	BudgetBytes   uint64 `json:"budget_bytes"`
	FloorBytes    uint64 `json:"floor_bytes"`
	AchievedBytes uint64 `json:"achieved_bytes"`

	// TSStride > 0 means node timestamps were widened to multiples of it.
	TSStride uint32 `json:"ts_stride,omitempty"`

	// GroupsKept / EdgesKept count the streams still answering exactly
	// (inferable edges, whose labels are implied, count as kept).
	GroupsKept int `json:"groups_kept"`
	EdgesKept  int `json:"edges_kept"`

	DroppedGroups []DroppedGroup `json:"dropped_groups,omitempty"`
	DroppedEdges  []DroppedEdge  `json:"dropped_edges,omitempty"`

	// LostCapabilities lists the Cap* identifiers no longer answerable.
	LostCapabilities []string `json:"lost_capabilities,omitempty"`

	idxOnce  sync.Once
	groupIdx map[[2]int]bool
	edgeIdx  map[int]bool
}

// Degraded reports whether the freeze had to shed anything: false means
// the container is byte-identical to an unbudgeted freeze.
func (f *FidelityReport) Degraded() bool {
	return f != nil && (f.TSStride > 0 || len(f.DroppedGroups) > 0 || len(f.DroppedEdges) > 0)
}

func (f *FidelityReport) buildIndex() {
	f.idxOnce.Do(func() {
		f.groupIdx = make(map[[2]int]bool, len(f.DroppedGroups))
		for _, d := range f.DroppedGroups {
			f.groupIdx[[2]int{d.Node, d.Group}] = true
		}
		f.edgeIdx = make(map[int]bool, len(f.DroppedEdges))
		for _, d := range f.DroppedEdges {
			f.edgeIdx[d.Edge] = true
		}
	})
}

// GroupDropped reports whether node n's group g was dropped. Safe for
// concurrent use (the wetio loaders consult it from parallel section
// parsers).
func (f *FidelityReport) GroupDropped(n, g int) bool {
	if f == nil {
		return false
	}
	f.buildIndex()
	return f.groupIdx[[2]int{n, g}]
}

// EdgeDropped reports whether edge e was dropped.
func (f *FidelityReport) EdgeDropped(e int) bool {
	if f == nil {
		return false
	}
	f.buildIndex()
	return f.edgeIdx[e]
}

// Finish derives the summary fields (kept counts, lost capabilities) from
// the drop lists; the optimizer and the wetio loader both call it once the
// lists are final.
func (f *FidelityReport) Finish(totalGroups, totalEdges int) {
	f.GroupsKept = totalGroups - len(f.DroppedGroups)
	f.EdgesKept = totalEdges - len(f.DroppedEdges)
	f.LostCapabilities = nil
	if len(f.DroppedGroups) > 0 {
		f.LostCapabilities = append(f.LostCapabilities, CapValues)
	}
	if len(f.DroppedEdges) > 0 {
		f.LostCapabilities = append(f.LostCapabilities, CapDependences)
	}
	if f.TSStride > 0 {
		f.LostCapabilities = append(f.LostCapabilities, CapExactTS)
	}
}

func (f *FidelityReport) String() string {
	if f == nil {
		return "no byte budget"
	}
	s := fmt.Sprintf("byte budget %d B: lossless floor %d B, achieved %d B", f.BudgetBytes, f.FloorBytes, f.AchievedBytes)
	if !f.Degraded() {
		return s + " (lossless: nothing degraded)"
	}
	s += fmt.Sprintf("\n  kept: %d value groups, %d edges", f.GroupsKept, f.EdgesKept)
	if len(f.DroppedGroups) > 0 {
		s += fmt.Sprintf("\n  dropped: %d value groups", len(f.DroppedGroups))
	}
	if len(f.DroppedEdges) > 0 {
		s += fmt.Sprintf("\n  dropped: %d dependence edges", len(f.DroppedEdges))
	}
	if f.TSStride > 0 {
		s += fmt.Sprintf("\n  degraded: timestamps widened to stride %d", f.TSStride)
	}
	for _, c := range f.LostCapabilities {
		s += fmt.Sprintf("\n  lost: %s", c)
	}
	return s
}

// Serialized cost of the fidelity bookkeeping itself, which the projection
// must charge: the one-time section cost (9-byte frame + fixed fields) and
// the per-entry record sizes (wetio's fidelity section layout).
const (
	fidSectionBytes    = 9 + 8 + 8 + 8 + 4 + 4 + 4 + 4 + 4
	fidGroupEntryBytes = 4 + 4 + 8
	fidEdgeEntryBytes  = 4 + 8
	emptyStreamBytes   = 9 // Save size of stream.Empty()
)

// maxTSStride bounds the timestamp-widening rung: past 64Ki-timestamp
// quantization the sampled sequence carries no useful order anyway.
const maxTSStride = 1 << 16

// budgetCandidate is one unit the ladder can shed: a value group, or a
// dependence edge together with its share-closure (dropping an owner
// drops every edge reading its labels).
type budgetCandidate struct {
	node, group int   // group candidates
	edges       []int // edge candidates: the full share closure
	saved       uint64
	cost        uint64 // fidelity-entry bytes the drop adds
}

// applyByteBudget lands the frozen container under opts.ByteBudget. The
// WET must already be frozen (the measure oracle serializes it). Past the
// lossless floor it descends the ordered lossy ladder — uncompressed-value
// group streams (largest first), then dependence-edge label streams
// (largest share-closure first), then timestamp widening to sampled
// strides (single-epoch containers only) — mutating the WET in place and
// recording every rung in w.Fidelity. Savings are computed exactly
// (stream.SaveSize of what each drop removes, minus the placeholder and
// report-entry bytes it adds), so one projection pass per rung suffices;
// the final size is re-measured and recorded as AchievedBytes.
//
// A nil error with opts.ByteBudget == 0 is the no-op fast path. On error
// the caller unfreezes and releases per the FreezeErr contract.
func (w *WET) applyByteBudget(opts FreezeOptions) error {
	if opts.ByteBudget == 0 {
		return nil
	}
	if err := fpBudgetPlan.Hit(); err != nil {
		return err
	}
	if containerMeasure == nil {
		return fmt.Errorf("core: FreezeOptions.ByteBudget needs a container measure; import wet/internal/wetio")
	}
	budget := opts.ByteBudget
	floor, err := containerMeasure(w)
	if err != nil {
		return fmt.Errorf("core: budget planning: measuring the lossless floor: %w", err)
	}
	totalGroups := 0
	for _, n := range w.Nodes {
		totalGroups += len(n.Groups)
	}
	fid := &FidelityReport{BudgetBytes: budget, FloorBytes: floor, AchievedBytes: floor}
	fid.Finish(totalGroups, len(w.Edges))
	w.Fidelity = fid
	if floor <= budget {
		return nil // lossless: container byte-identical to an unbudgeted freeze
	}

	// The projection tracks the exact container size as drops apply; the
	// first drop also pays for the fidelity section's fixed fields.
	projected := floor + fidSectionBytes

	// Rung 1: drop value group streams, largest exact savings first.
	projected, err = w.dropGroups(projected, budget, fid)
	if err != nil {
		return err
	}
	// Rung 2: drop dependence edge label streams.
	if projected > budget {
		projected, err = w.dropEdges(projected, budget, fid)
		if err != nil {
			return err
		}
	}
	// Rung 3: widen node timestamps to a sampled stride (single-epoch
	// containers only: v4 segments store epoch-local timestamps whose
	// re-based quantization would not round-trip).
	if projected > budget && !w.Segmented() {
		projected, err = w.widenTS(budget, fid)
		if err != nil {
			return err
		}
	}

	fid.Finish(totalGroups, len(w.Edges))
	achieved, err := containerMeasure(w)
	if err != nil {
		return fmt.Errorf("core: budget planning: measuring the degraded container: %w", err)
	}
	fid.AchievedBytes = achieved
	if achieved > budget {
		return &BudgetError{Budget: budget, Floor: floor, Best: achieved}
	}
	return nil
}

// groupDropSavings returns the exact container bytes dropping (n, g)
// sheds, already net of the placeholder streams left behind.
func groupDropSavings(w *WET, g *Group) (uint64, error) {
	var saved uint64
	if w.Segmented() {
		// v4: every segment's 8-byte header and stream payload vanish (the
		// zero segment count is self-describing).
		for _, sg := range g.PatSegs {
			n, err := stream.SaveSize(sg.S)
			if err != nil {
				return 0, err
			}
			saved += 8 + n
		}
		for _, segs := range g.UValSegs {
			for _, sg := range segs {
				n, err := stream.SaveSize(sg.S)
				if err != nil {
					return 0, err
				}
				saved += 8 + n
			}
		}
		return saved, nil
	}
	// v3: each stream is replaced by the 9-byte empty placeholder so the
	// payload shape is unchanged.
	if g.PatternS != nil {
		n, err := stream.SaveSize(g.PatternS)
		if err != nil {
			return 0, err
		}
		saved += n - emptyStreamBytes
	}
	for _, s := range g.UValS {
		n, err := stream.SaveSize(s)
		if err != nil {
			return 0, err
		}
		saved += n - emptyStreamBytes
	}
	return saved, nil
}

// dropGroups descends rung 1 until the projection fits or candidates run
// out, mutating dropped groups to their placeholder form.
func (w *WET) dropGroups(projected, budget uint64, fid *FidelityReport) (uint64, error) {
	var cands []budgetCandidate
	for ni, n := range w.Nodes {
		for gi, g := range n.Groups {
			saved, err := groupDropSavings(w, g)
			if err != nil {
				return 0, fmt.Errorf("core: budget planning: sizing node %d group %d: %w", ni, gi, err)
			}
			if saved <= fidGroupEntryBytes {
				continue // the report entry would cost more than the drop saves
			}
			cands = append(cands, budgetCandidate{node: ni, group: gi, saved: saved, cost: fidGroupEntryBytes})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].saved != cands[j].saved {
			return cands[i].saved > cands[j].saved
		}
		if cands[i].node != cands[j].node {
			return cands[i].node < cands[j].node
		}
		return cands[i].group < cands[j].group
	})
	for _, c := range cands {
		if projected <= budget {
			break
		}
		g := w.Nodes[c.node].Groups[c.group]
		g.Dropped = true
		if w.Segmented() {
			g.PatSegs, g.UValSegs = nil, nil
		} else {
			g.PatternS = stream.Empty()
			for i := range g.UValS {
				g.UValS[i] = stream.Empty()
			}
		}
		projected -= c.saved - c.cost
		fid.DroppedGroups = append(fid.DroppedGroups, DroppedGroup{Node: c.node, Group: c.group, SavedBytes: c.saved})
	}
	return projected, nil
}

// edgeDropSavings returns the exact container bytes dropping edge e sheds
// (e's own stored labels; shared and inferable forms store little or
// nothing).
func edgeDropSavings(e *Edge) (uint64, error) {
	var saved uint64
	if e.Segs != nil {
		// v4: each segment's 9-byte header and payload vanish.
		for _, sg := range e.Segs {
			saved += 9
			switch {
			case sg.Inferable:
				saved += 4
			case sg.SharedWith >= 0:
				saved += 8
			default:
				n, err := stream.SaveSize(sg.DstS)
				if err != nil {
					return 0, err
				}
				saved += n
				if !sg.Diagonal {
					n, err = stream.SaveSize(sg.SrcS)
					if err != nil {
						return 0, err
					}
					saved += n
				}
			}
		}
		return saved, nil
	}
	// v3: streams are stored only on owners; they shrink to placeholders.
	if e.Inferable || e.SharedWith >= 0 || e.DstS == nil {
		return 0, nil
	}
	n, err := stream.SaveSize(e.DstS)
	if err != nil {
		return 0, err
	}
	saved += n - emptyStreamBytes
	if !e.Diagonal {
		n, err = stream.SaveSize(e.SrcS)
		if err != nil {
			return 0, err
		}
		saved += n - emptyStreamBytes
	}
	return saved, nil
}

// edgeClosure returns every edge that must drop together with owner i:
// v3 sharers redirect whole label sequences, v4 segments share
// per-segment, and a cascaded edge's own segments can be shared further.
func (w *WET) edgeClosure(i int, dependents map[int][]int) []int {
	closure := []int{i}
	seen := map[int]bool{i: true}
	for qi := 0; qi < len(closure); qi++ {
		for _, d := range dependents[closure[qi]] {
			if !seen[d] {
				seen[d] = true
				closure = append(closure, d)
			}
		}
	}
	sort.Ints(closure)
	return closure
}

// dropEdges descends rung 2: owners with the largest exact savings first,
// each dragging its full share closure.
func (w *WET) dropEdges(projected, budget uint64, fid *FidelityReport) (uint64, error) {
	dependents := map[int][]int{}
	for i, e := range w.Edges {
		if e.SharedWith >= 0 {
			dependents[e.SharedWith] = append(dependents[e.SharedWith], i)
		}
		for _, sg := range e.Segs {
			if sg.SharedWith >= 0 && sg.SharedWith != i {
				dependents[sg.SharedWith] = append(dependents[sg.SharedWith], i)
			}
		}
	}
	perEdge := make([]uint64, len(w.Edges))
	for i, e := range w.Edges {
		if e.Inferable {
			continue
		}
		saved, err := edgeDropSavings(e)
		if err != nil {
			return 0, fmt.Errorf("core: budget planning: sizing edge %d: %w", i, err)
		}
		perEdge[i] = saved
	}
	var cands []budgetCandidate
	for i, e := range w.Edges {
		if e.Inferable || e.SharedWith >= 0 {
			continue // sharers only drop by cascade
		}
		closure := w.edgeClosure(i, dependents)
		var saved uint64
		for _, ci := range closure {
			saved += perEdge[ci]
		}
		cost := uint64(len(closure)) * fidEdgeEntryBytes
		if saved <= cost {
			continue
		}
		cands = append(cands, budgetCandidate{edges: closure, saved: saved, cost: cost})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].saved != cands[j].saved {
			return cands[i].saved > cands[j].saved
		}
		return cands[i].edges[0] < cands[j].edges[0]
	})
	for _, c := range cands {
		if projected <= budget {
			break
		}
		var saved, cost uint64
		for _, ci := range c.edges {
			e := w.Edges[ci]
			if e.Dropped {
				continue // an earlier closure already took it
			}
			e.Dropped = true
			if e.Segs != nil {
				e.Segs = nil
			} else if !e.Inferable && e.SharedWith < 0 && e.DstS != nil {
				e.DstS = stream.Empty()
				if !e.Diagonal {
					e.SrcS = stream.Empty()
				}
			}
			saved += perEdge[ci]
			cost += fidEdgeEntryBytes
			fid.DroppedEdges = append(fid.DroppedEdges, DroppedEdge{Edge: ci, SavedBytes: perEdge[ci]})
		}
		if saved > cost {
			projected -= saved - cost
		}
	}
	return projected, nil
}

// widenTS descends rung 3: recompress every node's timestamp stream at
// successively coarser strides until the measured container fits. The
// sequence keeps its length — only resolution is lost — so loaders and
// per-node Execs bookkeeping are untouched.
func (w *WET) widenTS(budget uint64, fid *FidelityReport) (uint64, error) {
	orig := make([][]uint32, len(w.Nodes))
	for i, n := range w.Nodes {
		if n.TS != nil {
			orig[i] = n.TS
		} else {
			orig[i] = stream.Drain(n.TSS)
		}
	}
	sc := stream.NewScratch()
	defer sc.Release()
	var size uint64
	for stride := uint32(2); stride <= maxTSStride; stride *= 2 {
		for i, n := range w.Nodes {
			sampled := stream.SampleStride(orig[i], stride)
			n.TSS = stream.CompressBestScratch(sampled, sc)
			if n.TS != nil {
				n.TS = sampled
			}
		}
		w.TSStride = stride
		fid.TSStride = stride
		var err error
		size, err = containerMeasure(w)
		if err != nil {
			return 0, fmt.Errorf("core: budget planning: measuring at ts stride %d: %w", stride, err)
		}
		if size <= budget {
			return size, nil
		}
	}
	return size, nil
}
