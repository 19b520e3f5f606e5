package wet_test

// Tests of the public API surface, written as an external consumer would
// use the library.

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"wet"
	"wet/internal/corpus"
	"wet/internal/wetio"
)

func buildSum(t *testing.T) (*wet.Program, *wet.Stmt) {
	t.Helper()
	p := wet.NewProgram(1 << 10)
	fb := p.NewFunc("main", 0)
	sum := fb.ConstReg(0)
	fb.For(wet.Imm(1), wet.Imm(11), wet.Imm(1), func(i wet.Reg) {
		fb.Add(sum, wet.R(sum), wet.R(i))
		fb.Store(wet.R(i), 0, wet.R(sum))
	})
	out := fb.NewReg()
	fb.Load(out, wet.Imm(10), 0)
	fb.Output(wet.R(out))
	outS := fb.LastEmitted()
	fb.Halt()
	p.MustFinalize()
	return p, outS
}

func TestPublicBuildAndRun(t *testing.T) {
	p, _ := buildSum(t)
	outs, err := wet.RunProgram(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0] != 55 {
		t.Fatalf("outputs = %v, want [55]", outs)
	}
}

func TestPublicWETPipeline(t *testing.T) {
	p, outS := buildSum(t)
	tr, res, err := wet.Run(p, wet.WithCheckDeterminism())
	if err != nil {
		t.Fatal(err)
	}
	w, rep := tr.WET(), tr.Report().Size
	if rep.T2Total() >= rep.OrigTotal() {
		t.Fatalf("no compression: %d >= %d", rep.T2Total(), rep.OrigTotal())
	}
	if n := tr.ExtractControlFlow(true, nil); n != res.Steps {
		t.Fatalf("CF trace %d stmts, ran %d", n, res.Steps)
	}

	// The output's backward slice must include every loop iteration's add.
	ref := w.StmtOcc[outS.ID][0]
	sl, err := tr.Backward(wet.Instance{Node: ref.Node, Pos: ref.Pos, Ord: 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	adds := 0
	for _, in := range sl.Instances {
		if w.Nodes[in.Node].Stmts[in.Pos].Op == wet.OpAdd && w.Nodes[in.Node].Stmts[in.Pos].Dest == 0 {
			adds++
		}
	}
	if adds < 10 {
		t.Fatalf("slice reached %d sum updates, want >= 10", adds)
	}
}

// TestRunRejectsWideCall pins the typed refusal of a statement with more
// register operands than a dependence edge key can name. A 15-argument call
// used to panic on the interpreter goroutine ("edge key field overflow"); 14
// arguments is the widest call the representation holds.
func TestRunRejectsWideCall(t *testing.T) {
	build := func(args int) *wet.Program {
		p := wet.NewProgram(1 << 10)
		cb := p.NewFunc("wide", args)
		sum := cb.ConstReg(0)
		for i := 0; i < args; i++ {
			cb.Add(sum, wet.R(sum), wet.R(cb.Param(i)))
		}
		cb.Ret(wet.R(sum))
		fb := p.NewFunc("main", 0)
		var ops []wet.Operand
		for i := 0; i < args; i++ {
			ops = append(ops, wet.R(fb.ConstReg(int64(i))))
		}
		fb.Output(wet.R(fb.Call(fb.NewReg(), "wide", ops...)))
		fb.Halt()
		p.Entry = 1
		p.MustFinalize()
		return p
	}
	for _, epochTS := range []uint32{0, 64} {
		if _, _, err := wet.Run(build(14), wet.WithEpochTS(epochTS)); err != nil {
			t.Fatalf("epoch %d: 14-argument call refused: %v", epochTS, err)
		}
		_, _, err := wet.Run(build(15), wet.WithEpochTS(epochTS))
		if err == nil || !strings.Contains(err.Error(), "register operands") {
			t.Fatalf("epoch %d: 15-argument call: err = %v, want the builder's operand-width refusal", epochTS, err)
		}
	}
}

func TestPublicValueAndAddressTraces(t *testing.T) {
	p, outS := buildSum(t)
	tr, _, err := wet.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	// Find the load feeding the output via its dependence structure: just
	// query the load statement (the one before outS).
	loadID := outS.ID - 1
	var vals []int64
	if _, err := tr.ValueTrace(loadID, func(s wet.Sample) {
		vals = append(vals, s.Value)
	}); err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 || vals[0] != 55 {
		t.Fatalf("load value trace = %v", vals)
	}
	var addrs []int64
	if _, err := tr.AddressTrace(loadID, func(s wet.Sample) {
		addrs = append(addrs, s.Value)
	}); err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 1 || addrs[0] != 10 {
		t.Fatalf("load address trace = %v", addrs)
	}
}

func TestPublicSaveLoad(t *testing.T) {
	p, _ := buildSum(t)
	tr, _, err := wet.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wet.Save(&buf, tr.WET()); err != nil {
		t.Fatal(err)
	}
	tr2, _, err := wet.Open(&buf, wet.WithTier1())
	if err != nil {
		t.Fatal(err)
	}
	var a, b []int
	tr.ExtractControlFlow(true, func(id int) { a = append(a, id) })
	tr2.AtTier(wet.Tier1).ExtractControlFlow(true, func(id int) { b = append(b, id) })
	if len(a) != len(b) {
		t.Fatalf("loaded CF trace %d stmts, want %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace differs at %d", i)
		}
	}
}

func TestPublicWalkerBidirectional(t *testing.T) {
	p, _ := buildSum(t)
	tr, _, err := wet.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	wk := tr.Walker()
	var fwd []int
	for wk.Forward() {
		fwd = append(fwd, wk.Node)
	}
	wk.SeekEnd()
	var bwd []int
	for wk.Backward() {
		bwd = append(bwd, wk.Node)
	}
	if len(fwd) != len(bwd) {
		t.Fatalf("walk lengths differ: %d vs %d", len(fwd), len(bwd))
	}
	for i := range fwd {
		if fwd[i] != bwd[len(bwd)-1-i] {
			t.Fatalf("backward walk is not the reverse at %d", i)
		}
	}
}

func TestPublicWorkloads(t *testing.T) {
	if len(wet.Workloads()) != 9 {
		t.Fatalf("want 9 workloads")
	}
	wl, err := wet.WorkloadByName("bzip2")
	if err != nil {
		t.Fatal(err)
	}
	prog, in := wl.Build(1)
	outs, err := wet.RunProgram(prog, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) == 0 {
		t.Fatal("bzip2 produced no output")
	}
	if _, err := wet.WorkloadByName("missing"); err == nil {
		t.Fatal("WorkloadByName accepted a bad name")
	}
}

func TestPublicCompressBest(t *testing.T) {
	vals := make([]uint32, 5000)
	for i := range vals {
		vals[i] = uint32(i * 3)
	}
	s := wet.CompressBest(vals)
	if s.SizeBits() > uint64(len(vals))*8 {
		t.Fatalf("strided stream compressed to %d bits only", s.SizeBits())
	}
	c := s.NewCursor()
	for i := range vals {
		if got := c.Next(); got != vals[i] {
			t.Fatalf("value %d = %d, want %d", i, got, vals[i])
		}
	}
	// A second cursor is independent of the first (which is parked at the
	// end) and supports checkpointed seeks.
	c2 := s.NewCursor()
	c2.Seek(len(vals) / 2)
	if got := c2.Next(); got != vals[len(vals)/2] {
		t.Fatalf("seeked cursor read %d, want %d", got, vals[len(vals)/2])
	}
}

func TestFacadeAnalysisHelpers(t *testing.T) {
	prog, err := wet.ParseProgram(`
func main() {
    s = const 0
    i = const 0
loop:
    c = lt i, 20
    br c, body, done
body:
    v = mul i, i
    s = add s, v
    store i, 0, s
    i = add i, 1
    jmp loop
done:
    x = load 19, 0
    output x
    halt
}
`)
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := wet.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	w := tr.WET()

	hps := tr.HotPaths(2)
	if len(hps) == 0 || hps[0].Execs == 0 {
		t.Fatalf("HotPaths: %+v", hps)
	}
	invs, err := tr.ValueInvariance(1)
	if err != nil || len(invs) == 0 {
		t.Fatalf("ValueInvariance: %v (%d)", err, len(invs))
	}
	sps, err := tr.StrideProfiles(5)
	if err != nil || len(sps) == 0 {
		t.Fatalf("StrideProfiles: %v (%d)", err, len(sps))
	}
	if sps[0].Pattern != wet.RefStrided {
		t.Fatalf("journal store not strided: %+v", sps[0])
	}
	n, err := tr.ExtractCFRange(2, 5, nil)
	if err != nil || n == 0 {
		t.Fatalf("ExtractCFRange: %v (%d)", err, n)
	}

	// Chop input->output through the hot loop.
	var outS, mulS *wet.Stmt
	for _, s := range prog.Stmts {
		switch s.Op {
		case wet.OpOutput:
			outS = s
		case wet.OpMul:
			mulS = s
		}
	}
	mref := w.StmtOcc[mulS.ID][0]
	oref := w.StmtOcc[outS.ID][0]
	chop, err := tr.Chop(
		wet.Instance{Node: mref.Node, Pos: mref.Pos, Ord: 0},
		wet.Instance{Node: oref.Node, Pos: oref.Pos, Ord: 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(chop.Instances) == 0 {
		t.Fatal("empty chop: the first square must influence the output")
	}
	chain, err := tr.DependenceChain(
		wet.Instance{Node: oref.Node, Pos: oref.Pos, Ord: 0}, 0, 8)
	if err != nil || len(chain) < 2 {
		t.Fatalf("DependenceChain: %v (%d)", err, len(chain))
	}
	var dot bytes.Buffer
	sl, err := tr.Backward(wet.Instance{Node: oref.Node, Pos: oref.Pos, Ord: 0}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteDOT(sl, &dot); err != nil {
		t.Fatal(err)
	}
	if dot.Len() == 0 {
		t.Fatal("empty DOT output")
	}
}

// TestOpenMatchesLoad pins Open's option ↔ wetio.LoadOptions mapping on a
// saved streamed trace.
func TestOpenMatchesLoad(t *testing.T) {
	prog, _ := buildSum(t)
	tr, _, err := wet.Run(prog, wet.WithEpochTS(4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}

	got, rep, err := wet.Open(bytes.NewReader(buf.Bytes()), wet.WithTier1())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version != 4 || rep.Salvage != nil || rep.Verify != nil {
		t.Fatalf("open report: %+v", rep)
	}
	old, err := wetio.Load(bytes.NewReader(buf.Bytes()), wetio.LoadOptions{RestoreTier1: true})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := got.ExtractControlFlow(true, nil), wet.NewTrace(old).AtTier(wet.Tier1).ExtractControlFlow(true, nil); a != b {
		t.Fatalf("open vs load: %d vs %d statements", a, b)
	}
	if got.AtTier(wet.Tier1).ExtractControlFlow(true, nil) != got.ExtractControlFlow(true, nil) {
		t.Fatal("tier-1 rehydration mismatch")
	}

	sv, srep, err := wet.Open(bytes.NewReader(buf.Bytes()), wet.WithSalvage())
	if err != nil {
		t.Fatal(err)
	}
	if srep.Salvage == nil || !srep.Salvage.Clean() || sv.Epochs() != tr.Epochs() {
		t.Fatalf("salvage open of intact file: %+v", srep.Salvage)
	}

	none, vrep, err := wet.Open(bytes.NewReader(buf.Bytes()), wet.WithVerifyOnly())
	if err != nil {
		t.Fatal(err)
	}
	if none != nil || vrep.Verify == nil || !vrep.Verify.OK() || vrep.Version != 4 {
		t.Fatalf("verify-only open: trace=%v report=%+v", none, vrep)
	}
}

// TestOpenLazyAndParallel pins the fast open paths at the facade: every
// combination of WithLazy and WithWorkers must yield a trace that answers
// queries — both traversal directions, and a full backward slice —
// identically to a plain eager Open.
func TestOpenLazyAndParallel(t *testing.T) {
	prog, outS := buildSum(t)
	tr, _, err := wet.Run(prog, wet.WithEpochTS(4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}

	eager, _, err := wet.Open(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var fwd, bwd []int
	eager.ExtractControlFlow(true, func(id int) { fwd = append(fwd, id) })
	eager.ExtractControlFlow(false, func(id int) { bwd = append(bwd, id) })
	ref := eager.WET().StmtOcc[outS.ID][0]
	crit := wet.Instance{Node: ref.Node, Pos: ref.Pos, Ord: 0}
	baseSlice, err := eager.Backward(crit, 0)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		opts []wet.OpenOption
	}{
		{"lazy", []wet.OpenOption{wet.WithLazy()}},
		{"workers", []wet.OpenOption{wet.WithWorkers(4)}},
		{"lazy_parallel", []wet.OpenOption{wet.WithLazy(), wet.WithWorkers(0)}},
		{"lazy_tier1", []wet.OpenOption{wet.WithLazy(), wet.WithTier1()}},
	} {
		got, rep, err := wet.Open(bytes.NewReader(buf.Bytes()), tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep.Version != 4 {
			t.Fatalf("%s: version %d", tc.name, rep.Version)
		}
		var f, b []int
		got.ExtractControlFlow(true, func(id int) { f = append(f, id) })
		got.ExtractControlFlow(false, func(id int) { b = append(b, id) })
		if len(f) != len(fwd) || len(b) != len(bwd) {
			t.Fatalf("%s: CF lengths %d/%d, want %d/%d", tc.name, len(f), len(b), len(fwd), len(bwd))
		}
		for i := range fwd {
			if f[i] != fwd[i] || b[i] != bwd[i] {
				t.Fatalf("%s: CF trace diverges at %d", tc.name, i)
			}
		}
		sl, err := got.Backward(crit, 0)
		if err != nil {
			t.Fatalf("%s: backward slice: %v", tc.name, err)
		}
		if len(sl.Instances) != len(baseSlice.Instances) || sl.Edges != baseSlice.Edges {
			t.Fatalf("%s: slice %d/%d, want %d/%d", tc.name,
				len(sl.Instances), sl.Edges, len(baseSlice.Instances), baseSlice.Edges)
		}
	}
}

// TestCappedSliceSameOnEveryOpen: a slice, capped or not, is a function of the
// trace, the criterion and the cap — the same instances in the same order,
// the same Edges — at either tier of an eager open, from a lazy open, and
// from evictable segments under a cache too small to keep them.
func TestCappedSliceSameOnEveryOpen(t *testing.T) {
	for _, name := range []string{"li", "gzip"} {
		data := saveBytes(t, runWorkload(t, name, wet.WithEpochTS(1<<8)))
		open := func(opts ...wet.OpenOption) *wet.Trace {
			tr, _, err := wet.Open(bytes.NewReader(data), opts...)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}
		eager := open(wet.WithTier1())
		entry, err := corpus.New(4<<10).Add(name, data)
		if err != nil {
			t.Fatal(err)
		}
		views := []*wet.Trace{eager.AtTier(wet.Tier1), eager.AtTier(wet.Tier2), open(wet.WithLazy()), entry.Trace}
		compared := 0
		for _, c := range spacedCriteria(t, eager) {
			for _, limit := range []int{0, 1, 50, 500} {
				for _, slice := range []func(*wet.Trace) (*wet.SliceResult, error){
					func(tr *wet.Trace) (*wet.SliceResult, error) { return tr.Backward(c, limit) },
					func(tr *wet.Trace) (*wet.SliceResult, error) {
						return tr.Forward(wet.Instance{Node: c.Node, Ord: c.Ord}, limit)
					},
				} {
					var want *wet.SliceResult
					for i, v := range views {
						got, err := slice(v)
						if err != nil {
							t.Fatal(err)
						}
						if want == nil {
							want = got
						}
						if got.Edges != want.Edges || !slices.Equal(got.Instances, want.Instances) {
							t.Fatalf("%s %+v cap %d: view %d answers %d instances over %d edges, view 0 %d over %d",
								name, c, limit, i, len(got.Instances), got.Edges, len(want.Instances), want.Edges)
						}
						compared += len(got.Instances)
					}
				}
			}
		}
		if compared < 10000 {
			t.Fatalf("%s: compared only %d instances", name, compared)
		}
	}
}
