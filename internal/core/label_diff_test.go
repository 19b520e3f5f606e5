package core_test

// Differential test of the builder's dependence-label fast path. refBuilder
// is the append-only label path the builder had before it learned to count
// ramps (one location per path execution in a flat table, one map lookup
// and two appends per label, the §3.3 reductions found by scanning the
// epoch's slices at seal), kept here the way the two-pass stream normalisers
// were kept as test references. It consumes the same event stream as the
// real builder; every edge must then agree with it field for field and label
// for label.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"wet/internal/core"
	"wet/internal/interp"
	"wet/internal/ir"
	"wet/internal/progen"
	"wet/internal/trace"
	"wet/internal/workload"
)

type refLoc struct {
	node, pos int
	ord       uint32
}

type refEdgeKey struct {
	kind     core.EdgeKind
	src, dst refLoc // ord zero
	opIdx    int
}

// refSeg is one epoch of one reference edge.
type refSeg struct {
	epoch, n              int
	inferable             bool
	rampBase              uint32
	sharedWith, sharedSeg int
	dst, src              []uint32
}

type refEdge struct {
	key            refEdgeKey
	dst, src       []uint32 // the open epoch's labels
	allDst, allSrc []uint32 // the whole run's
	segs           []refSeg
}

type refEvent struct {
	dd []trace.Inst
	cd trace.Inst
}

type refBuilder struct {
	opts    core.FreezeOptions
	nodeIdx map[[2]int64]int
	execs   []int    // per node
	sealed  []int    // per node: executions in sealed epochs
	paths   []refLoc // per timestamp: node and ordinal (pos unused)
	pend    []refEvent
	edgeIdx map[uint64]int
	edges   []*refEdge
	time    uint32
}

func newRefBuilder(opts core.FreezeOptions) *refBuilder {
	return &refBuilder{opts: opts, nodeIdx: map[[2]int64]int{}, edgeIdx: map[uint64]int{}, paths: make([]refLoc, 1)}
}

func (r *refBuilder) Stmt(_ trace.Inst, _ *ir.Stmt, _ int64, ddSrcs []trace.Inst, _ []int64, cdSrc trace.Inst) {
	r.pend = append(r.pend, refEvent{dd: slices.Clone(ddSrcs), cd: cdSrc})
}

func (r *refBuilder) PathDone(fn int, pathID int64) {
	k := [2]int64{int64(fn), pathID}
	node, ok := r.nodeIdx[k]
	if !ok {
		node = len(r.execs)
		r.nodeIdx[k] = node
		r.execs, r.sealed = append(r.execs, 0), append(r.sealed, 0)
	}
	ord := uint32(r.execs[node])
	r.execs[node]++
	r.time++
	r.paths = append(r.paths, refLoc{node: node, ord: ord})
	for i, ev := range r.pend {
		for opIdx, src := range ev.dd {
			if src != 0 {
				r.label(core.DD, r.loc(src), refLoc{node, i, ord}, opIdx)
			}
		}
		if ev.cd != 0 {
			r.label(core.CD, r.loc(ev.cd), refLoc{node, i, ord}, -1)
		}
	}
	r.pend = r.pend[:0]
	if e := r.opts.EpochTS; e > 0 && r.time%e == 0 {
		r.seal(int(r.time/e) - 1)
	}
}

// loc is where instance in landed: its path execution's node and ordinal,
// at its position.
func (r *refBuilder) loc(in trace.Inst) refLoc {
	p := r.paths[trace.InstTS(in)]
	return refLoc{p.node, trace.InstPos(in), p.ord}
}

func (r *refBuilder) label(kind core.EdgeKind, src, dst refLoc, opIdx int) {
	k := core.PackEdgeKey(kind, src.node, src.pos, dst.node, dst.pos, opIdx)
	idx, ok := r.edgeIdx[k]
	if !ok {
		idx = len(r.edges)
		r.edges = append(r.edges, &refEdge{key: refEdgeKey{kind, refLoc{src.node, src.pos, 0}, refLoc{dst.node, dst.pos, 0}, opIdx}})
		r.edgeIdx[k] = idx
	}
	e := r.edges[idx]
	e.dst, e.src = append(e.dst, dst.ord), append(e.src, src.ord)
	e.allDst, e.allSrc = append(e.allDst, dst.ord), append(e.allSrc, src.ord)
}

// seal applies the §3.3 reductions to the labels of the epoch that closed,
// in edge order, by scanning them.
func (r *refBuilder) seal(epoch int) {
	type owner struct{ edge, seg int }
	var owners []owner
	for ei, e := range r.edges {
		if len(e.dst) == 0 {
			continue
		}
		sg := refSeg{epoch: epoch, n: len(e.dst), sharedWith: -1, sharedSeg: -1, dst: e.dst, src: e.src}
		e.dst, e.src = nil, nil
		start := uint32(r.sealed[e.key.dst.node])
		ramp := e.key.src.node == e.key.dst.node && sg.n == r.execs[e.key.dst.node]-r.sealed[e.key.dst.node]
		for k := range sg.dst {
			ramp = ramp && sg.dst[k] == sg.src[k] && sg.dst[k] == start+uint32(k)
		}
		switch {
		case ramp:
			sg.inferable, sg.rampBase = true, start
		default:
			for _, o := range owners {
				oe, os := r.edges[o.edge], r.edges[o.edge].segs[o.seg]
				if oe.key.src.node == e.key.src.node && oe.key.dst.node == e.key.dst.node && oe.key.kind == e.key.kind &&
					slices.Equal(os.dst, sg.dst) && slices.Equal(os.src, sg.src) {
					sg.sharedWith, sg.sharedSeg = o.edge, o.seg
					break
				}
			}
			if sg.sharedWith < 0 {
				owners = append(owners, owner{ei, len(e.segs)})
			}
		}
		e.segs = append(e.segs, sg)
	}
	copy(r.sealed, r.execs)
}

func (r *refBuilder) finish() {
	if e := r.opts.EpochTS; e == 0 {
		r.seal(0)
	} else if r.time%e != 0 {
		r.seal(int(r.time / e))
	}
}

// diffTee feeds the builder under test and the reference the same events.
type diffTee struct{ a, b trace.Sink }

func (t diffTee) Stmt(inst trace.Inst, st *ir.Stmt, v int64, dd []trace.Inst, dv []int64, cd trace.Inst) {
	t.a.Stmt(inst, st, v, dd, dv, cd)
	t.b.Stmt(inst, st, v, dd, dv, cd)
}

func (t diffTee) PathDone(fn int, pathID int64) {
	t.a.PathDone(fn, pathID)
	t.b.PathDone(fn, pathID)
}

// diffBuild runs the program once into both builders under opts and returns
// the frozen WET with its reference.
func diffBuild(t *testing.T, st *interp.Static, in []int64, opts core.FreezeOptions) (*core.WET, *refBuilder) {
	t.Helper()
	ref := newRefBuilder(opts)
	b := core.NewBuilder(st, opts)
	if _, err := interp.Run(st, interp.Options{Inputs: in, Sink: diffTee{b, ref}, MaxSteps: 1 << 22}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	ref.finish()
	w, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	// A one-epoch Finish must hand FreezeErr and the tier-1 queries the
	// plain slices.
	for i, e := range w.Edges {
		if re := ref.edges[i]; opts.EpochTS == 0 && (!slices.Equal(e.DstOrd, re.allDst) || !slices.Equal(e.SrcOrd, re.allSrc)) {
			t.Fatalf("edge %d: tier-1 labels after Finish differ from the reference", i)
		}
	}
	if _, err := w.FreezeErr(opts); err != nil {
		t.Fatalf("FreezeErr: %v", err)
	}
	return w, ref
}

// diffCheck compares every edge of w with the reference.
func diffCheck(t *testing.T, w *core.WET, ref *refBuilder) {
	t.Helper()
	if len(w.Edges) != len(ref.edges) {
		t.Fatalf("%d edges, reference has %d", len(w.Edges), len(ref.edges))
	}
	for i, e := range w.Edges {
		re := ref.edges[i]
		k := re.key
		if e.Kind != k.kind || e.SrcNode != k.src.node || e.SrcPos != k.src.pos || e.DstNode != k.dst.node || e.DstPos != k.dst.pos || e.OpIdx != k.opIdx {
			t.Fatalf("edge %d is %v %d.%d->%d.%d op %d, reference %+v", i, e.Kind, e.SrcNode, e.SrcPos, e.DstNode, e.DstPos, e.OpIdx, k)
		}
		if e.Count != len(re.allDst) {
			t.Fatalf("edge %d: Count %d, reference %d", i, e.Count, len(re.allDst))
		}
		if w.Segmented() {
			diffCheckSegs(t, i, e, re, ref.execs[k.dst.node])
		} else {
			sg := re.segs[0]
			if e.Inferable != sg.inferable || e.SharedWith != sg.sharedWith || e.Segs != nil {
				t.Fatalf("edge %d: Inferable/SharedWith %v/%d, reference %v/%d", i,
					e.Inferable, e.SharedWith, sg.inferable, sg.sharedWith)
			}
		}
		if e.Inferable {
			continue
		}
		dst, src := w.EdgeLabels(e, core.Tier2)
		eqU32(t, fmt.Sprintf("edge %d dst labels", i), drainSeq(dst), re.allDst)
		eqU32(t, fmt.Sprintf("edge %d src labels", i), drainSeq(src), re.allSrc)
	}
}

func diffCheckSegs(t *testing.T, i int, e *core.Edge, re *refEdge, execs int) {
	t.Helper()
	whole := re.key.src.node == re.key.dst.node && len(re.allDst) == execs
	for _, sg := range re.segs {
		whole = whole && sg.inferable
	}
	if e.Inferable != whole || e.SharedWith != -1 {
		t.Fatalf("edge %d: Inferable/SharedWith %v/%d, reference %v/-1", i, e.Inferable, e.SharedWith, whole)
	}
	if whole {
		if e.Segs != nil {
			t.Fatalf("edge %d: whole-run inferable edge kept %d segments", i, len(e.Segs))
		}
		return
	}
	if len(e.Segs) != len(re.segs) {
		t.Fatalf("edge %d: %d segments, reference %d", i, len(e.Segs), len(re.segs))
	}
	start := 0
	for si, sg := range e.Segs {
		rs := re.segs[si]
		want := core.EdgeSeg{Epoch: rs.epoch, N: rs.n, Start: start, Inferable: rs.inferable, RampBase: rs.rampBase,
			SharedWith: rs.sharedWith, SharedSeg: rs.sharedSeg}
		start += rs.n
		got := *sg
		got.DstS, got.SrcS = nil, nil
		if got != want {
			t.Fatalf("edge %d segment %d: %+v, reference %+v", i, si, got, want)
		}
		owned := !rs.inferable && rs.sharedWith < 0
		if (sg.DstS != nil) != owned || (sg.SrcS != nil) != owned {
			t.Fatalf("edge %d segment %d: streams present dst=%v src=%v, reference owned=%v", i, si, sg.DstS != nil, sg.SrcS != nil, owned)
		}
		if owned {
			eqU32(t, fmt.Sprintf("edge %d segment %d dst stream", i, si), drainSeq(sg.DstS.NewCursor()), rs.dst)
			eqU32(t, fmt.Sprintf("edge %d segment %d src stream", i, si), drainSeq(sg.SrcS.NewCursor()), rs.src)
		}
	}
}

// diffMatrix runs one program through every epoch size. The subtest names
// keep the noinfer/aggr/noshare labels of the inference, diagonal-edge and
// sharing ablations the matrix once also ran, so a result stays comparable
// with its history.
func diffMatrix(t *testing.T, p *ir.Program, in []int64) {
	t.Helper()
	st, err := interp.Analyze(p)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	for _, epochTS := range []uint32{0, 64, 2048} {
		o := core.FreezeOptions{EpochTS: epochTS}
		t.Run(fmt.Sprintf("epoch=%d/noinfer=false/aggr=false/noshare=false", epochTS), func(t *testing.T) {
			w, ref := diffBuild(t, st, in, o)
			diffCheck(t, w, ref)
		})
	}
}

func TestLabelDiffProgen(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		p, in, err := progen.Gen(rand.New(rand.NewSource(seed)), progen.DefaultOpts())
		if err != nil {
			t.Fatalf("seed %d: Gen: %v", seed, err)
		}
		st, err := interp.Analyze(p)
		if err != nil {
			t.Fatalf("seed %d: Analyze: %v", seed, err)
		}
		// Calls nested in loops can multiply into runs too large to record;
		// skip those seeds, deterministically.
		if _, err := interp.Run(st, interp.Options{Inputs: in, MaxSteps: 200_000}); err != nil {
			continue
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { diffMatrix(t, p, in) })
	}
}

func TestLabelDiffWorkloads(t *testing.T) {
	for _, name := range []string{"li", "gzip", "mcf"} {
		wl, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, in := wl.Build(1)
		t.Run(name, func(t *testing.T) { diffMatrix(t, p, in) })
	}
}

// TestLabelDiffHandBuilt drives the corners of the ramp counter, the slot
// cache and the chunked location table one at a time. Every loop body below
// is one Ball–Larus path, so from the second iteration on iteration i is one
// more execution of the same node, and at EpochTS 64 iteration 100 falls in
// the middle of an epoch. Each case first proves, on the reference, that the
// program has the shape it is named after.
func TestLabelDiffHandBuilt(t *testing.T) {
	const iters, k = 300, 100
	// loop builds main as: pre; for i in [0,n) { body(i) }; halt.
	loop := func(n int64, pre func(fb *ir.FuncBuilder), body func(fb *ir.FuncBuilder, i ir.Reg)) *ir.Program {
		p := ir.NewProgram(1 << 12)
		fb := p.NewFunc("main", 0)
		if pre != nil {
			pre(fb)
		}
		fb.For(ir.Imm(0), ir.Imm(n), ir.Imm(1), func(i ir.Reg) { body(fb, i) })
		fb.Halt()
		p.MustFinalize()
		return p
	}
	// storeLoad is the body { mem[i] = i; load mem[addr(i)] }: wherever
	// addr(i) == i the load's memory producer is this execution's store, a
	// <t,t> label on the local store->load edge.
	storeLoad := func(addr func(fb *ir.FuncBuilder, i ir.Reg) ir.Reg) func(*ir.FuncBuilder, ir.Reg) {
		return func(fb *ir.FuncBuilder, i ir.Reg) {
			fb.Store(ir.R(i), 0, ir.R(i))
			fb.Load(fb.NewReg(), ir.R(addr(fb, i)), 0)
		}
	}
	// only returns addr(i) = i where cond(i, k) holds and 2000+i, a word
	// nothing writes, elsewhere; branch-free, so the body stays one path.
	only := func(cond ir.Op) func(fb *ir.FuncBuilder, i ir.Reg) ir.Reg {
		return func(fb *ir.FuncBuilder, i ir.Reg) ir.Reg {
			c := fb.Bin(cond, fb.NewReg(), ir.R(i), ir.Imm(k))
			off := fb.Mul(fb.NewReg(), ir.R(fb.Sub(fb.NewReg(), ir.Imm(1), ir.R(c))), ir.Imm(2000))
			return fb.Add(fb.NewReg(), ir.R(i), ir.R(off))
		}
	}
	twoStores := func(fb *ir.FuncBuilder) {
		fb.Store(ir.Imm(3000), 0, ir.Imm(7))
		fb.Store(ir.Imm(3001), 0, ir.Imm(9))
	}
	// local reports a same-node edge whose labels satisfy ok.
	local := func(ok func(e *refEdge, execs int) bool) func(*refBuilder) bool {
		return func(r *refBuilder) bool {
			return slices.ContainsFunc(r.edges, func(e *refEdge) bool {
				return e.key.src.node == e.key.dst.node && ok(e, r.execs[e.key.dst.node])
			})
		}
	}
	diagonal := func(e *refEdge) bool { return slices.Equal(e.allDst, e.allSrc) }

	for _, c := range []struct {
		name  string
		prog  *ir.Program
		shape func(*refBuilder) bool
	}{
		{"ramp broken mid-epoch", loop(iters, nil, storeLoad(func(fb *ir.FuncBuilder, i ir.Reg) ir.Reg {
			// addr = i, except iteration k reads iteration k-3's store.
			eq := fb.Eq(fb.NewReg(), ir.R(i), ir.Imm(k))
			return fb.Sub(fb.NewReg(), ir.R(i), ir.R(fb.Mul(fb.NewReg(), ir.R(eq), ir.Imm(3))))
		})), local(func(e *refEdge, execs int) bool {
			at := slices.IndexFunc(e.allDst, func(d uint32) bool { return e.allSrc[d] != d })
			return len(e.allDst) == execs && e.allDst[0] == 0 && at > 64 && e.allSrc[at] == e.allDst[at]-3
		})},
		{"fires on the first k executions only", loop(iters, nil, storeLoad(only(ir.OpLt))),
			local(func(e *refEdge, execs int) bool {
				return diagonal(e) && e.allDst[0] == 0 && len(e.allDst) > 64 && len(e.allDst) < execs-64
			})},
		{"first firing not at start", loop(iters, nil, storeLoad(only(ir.OpGe))),
			local(func(e *refEdge, execs int) bool {
				return diagonal(e) && e.allDst[0] > 64 && int(e.allDst[len(e.allDst)-1]) == execs-1
			})},
		{"slot alternates between two sources", loop(iters, twoStores, func(fb *ir.FuncBuilder, i ir.Reg) {
			a := fb.And(fb.NewReg(), ir.R(i), ir.Imm(1))
			fb.Load(fb.NewReg(), ir.R(fb.Add(fb.NewReg(), ir.R(a), ir.Imm(3000))), 0)
		}), func(r *refBuilder) bool {
			for _, a := range r.edges {
				for _, b := range r.edges {
					if a != b && a.key.dst == b.key.dst && a.key.opIdx == b.key.opIdx && a.key.kind == b.key.kind &&
						len(a.allDst) > 100 && len(b.allDst) > 100 && a.allDst[1] == a.allDst[0]+2 && b.allDst[0] == a.allDst[0]+1 {
						return true
					}
				}
			}
			return false
		}},
		{"dependence reaching back across location chunks", loop(2*core.PathChunk, twoStores, func(fb *ir.FuncBuilder, i ir.Reg) {
			fb.Load(fb.NewReg(), ir.Imm(3000), 0)
		}), func(r *refBuilder) bool {
			// The pre-loop store runs at timestamp 1; the loop's last load of
			// it is more than one chunk of path executions later.
			return r.time > 2*core.PathChunk && slices.ContainsFunc(r.edges, func(e *refEdge) bool {
				return e.key.src.node != e.key.dst.node && len(e.allDst) >= 2*core.PathChunk-1
			})
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			st, err := interp.Analyze(c.prog)
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			if _, ref := diffBuild(t, st, nil, core.FreezeOptions{}); !c.shape(ref) {
				t.Fatal("the program does not have the shape the case is named after")
			}
			diffMatrix(t, c.prog, nil)
		})
	}
}
