package core_test

import (
	"context"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	"wet/internal/core"
	"wet/internal/interp"
	"wet/internal/ir"
	"wet/internal/query"
	"wet/internal/workload"
)

// buildBoth constructs the single-epoch and streaming WETs of one workload
// run. The single-epoch build keeps tier-1 so it can double as the oracle.
func buildBoth(t *testing.T, name string, targetStmts uint64, epochTS uint32, workers int) (single, streamed *core.WET) {
	t.Helper()
	wl, err := workload.ByName(name)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	scale, err := workload.ScaleFor(wl, targetStmts)
	if err != nil {
		t.Fatalf("ScaleFor: %v", err)
	}
	build := func(opts core.FreezeOptions) *core.WET {
		prog, in := wl.Build(scale)
		st, err := interp.Analyze(prog)
		if err != nil {
			t.Fatalf("Analyze: %v", err)
		}
		w, _, _, err := core.BuildStreaming(st, interp.Options{Inputs: in}, opts)
		if err != nil {
			t.Fatalf("BuildStreaming(EpochTS=%d): %v", opts.EpochTS, err)
		}
		return w
	}
	single = build(core.FreezeOptions{Workers: workers})
	streamed = build(core.FreezeOptions{EpochTS: epochTS, Workers: workers})
	return single, streamed
}

func drainSeq(s core.Seq) []uint32 {
	out := make([]uint32, s.Len())
	for i := range out {
		out[i] = s.Next()
	}
	return out
}

func eqU32(t *testing.T, what string, a, b []uint32) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: element %d: %d vs %d", what, i, a[i], b[i])
		}
	}
}

// TestStreamingEquivalence is the property test of the epoch pipeline: a
// streamed WET and a single-epoch WET of the same run must agree on every
// label sequence and every query result. A small epoch size forces many
// epochs (including a trailing partial one).
func TestStreamingEquivalence(t *testing.T) {
	for _, name := range []string{"li", "gzip", "mcf"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			single, streamed := buildBoth(t, name, 30000, 1<<8, 0)

			if single.Time != streamed.Time {
				t.Fatalf("time: %d vs %d", single.Time, streamed.Time)
			}
			if !streamed.Segmented() || streamed.Epochs < 2 {
				t.Fatalf("streamed WET has %d epochs at size %d (time %d); want >= 2", streamed.Epochs, streamed.EpochTS, streamed.Time)
			}
			if len(single.Nodes) != len(streamed.Nodes) || len(single.Edges) != len(streamed.Edges) {
				t.Fatalf("shape: %d/%d nodes, %d/%d edges", len(single.Nodes), len(streamed.Nodes), len(single.Edges), len(streamed.Edges))
			}

			// Label sequences, via the same cursor factories queries use.
			for i, n1 := range single.Nodes {
				n2 := streamed.Nodes[i]
				if n1.Execs != n2.Execs {
					t.Fatalf("node %d execs %d vs %d", i, n1.Execs, n2.Execs)
				}
				eqU32(t, "node ts", drainSeq(single.TSSeq(n1, core.Tier2)), drainSeq(streamed.TSSeq(n2, core.Tier2)))
				for gi, g1 := range n1.Groups {
					g2 := n2.Groups[gi]
					if g1.UniqueKeys() != g2.UniqueKeys() {
						t.Fatalf("node %d group %d keys %d vs %d", i, gi, g1.UniqueKeys(), g2.UniqueKeys())
					}
					eqU32(t, "pattern", drainSeq(single.PatternSeq(g1, core.Tier2)), drainSeq(streamed.PatternSeq(g2, core.Tier2)))
					for mi := range g1.ValMembers {
						eqU32(t, "uvals", drainSeq(single.UValSeq(g1, mi, core.Tier2)), drainSeq(streamed.UValSeq(g2, mi, core.Tier2)))
					}
				}
			}
			for i, e1 := range single.Edges {
				e2 := streamed.Edges[i]
				if e1.Count != e2.Count || e1.Kind != e2.Kind || e1.SrcNode != e2.SrcNode || e1.DstNode != e2.DstNode {
					t.Fatalf("edge %d identity mismatch", i)
				}
				if e1.Inferable != e2.Inferable {
					t.Fatalf("edge %d inferable %v vs %v", i, e1.Inferable, e2.Inferable)
				}
				if e1.Inferable {
					continue
				}
				d1, s1 := single.EdgeLabels(e1, core.Tier2)
				d2, s2 := streamed.EdgeLabels(e2, core.Tier2)
				eqU32(t, "edge dst", drainSeq(d1), drainSeq(d2))
				eqU32(t, "edge src", drainSeq(s1), drainSeq(s2))
			}

			// Backward traversal through the federated cursor.
			n0 := streamed.Nodes[0]
			fwd := drainSeq(streamed.TSSeq(n0, core.Tier2))
			bs := streamed.TSSeq(n0, core.Tier2)
			bs.Seek(bs.Len())
			for i := len(fwd) - 1; i >= 0; i-- {
				if v := bs.Prev(); v != fwd[i] {
					t.Fatalf("backward ts walk: element %d: %d vs %d", i, v, fwd[i])
				}
			}

			// Structural consistency of the segmented representation.
			if err := streamed.Validate(); err != nil {
				t.Fatalf("Validate(streamed): %v", err)
			}

			// Query equivalence: control flow, values, addresses, slices.
			digest := func(w *core.WET) uint64 {
				h := fnv.New64a()
				var buf [4]byte
				emit := func(id int) {
					buf[0], buf[1], buf[2], buf[3] = byte(id), byte(id>>8), byte(id>>16), byte(id>>24)
					h.Write(buf[:])
				}
				for _, forward := range []bool{true, false} {
					if _, err := query.ExtractCFCtx(context.Background(), w, core.Tier2, forward, -1, emit); err != nil {
						t.Fatalf("ExtractCFCtx(forward=%v): %v", forward, err)
					}
				}
				for _, st := range w.Prog.Stmts {
					if st.Op.HasDef() && st.Dest >= 0 {
						if _, err := query.ValueTraceCtx(context.Background(), w, core.Tier2, st.ID, -1, func(s query.Sample) {
							emit(int(s.TS))
							emit(int(uint32(s.Value)))
						}); err != nil {
							t.Fatalf("ValueTrace(%d): %v", st.ID, err)
						}
					}
					if _, err := query.AddressTraceCtx(context.Background(), w, core.Tier2, st.ID, -1, func(s query.Sample) {
						emit(int(s.TS))
						emit(int(uint32(s.Value)))
					}); err == nil {
						emit(1)
					}
				}
				return h.Sum64()
			}
			if d1, d2 := digest(single), digest(streamed); d1 != d2 {
				t.Fatalf("query digest: %#x vs %#x", d1, d2)
			}

			sliceDigest := func(w *core.WET) (int, int) {
				in, err := query.InstanceOfTS(w, core.Tier2, w.Nodes[w.LastNode].Stmts[0].ID, w.Time)
				if err != nil {
					t.Fatalf("InstanceOfTS: %v", err)
				}
				bwd, err := query.BackwardSlice(w, core.Tier2, in, 500)
				if err != nil {
					t.Fatalf("BackwardSlice: %v", err)
				}
				fw, err := query.ForwardSlice(w, core.Tier2, query.Instance{Node: w.FirstNode}, 500)
				if err != nil {
					t.Fatalf("ForwardSlice: %v", err)
				}
				return len(bwd.Instances), len(fw.Instances)
			}
			b1, f1 := sliceDigest(single)
			b2, f2 := sliceDigest(streamed)
			if b1 != b2 || f1 != f2 {
				t.Fatalf("slices: backward %d vs %d, forward %d vs %d", b1, b2, f1, f2)
			}
		})
	}
}

// rampProgram's loop stores to one word and loads it back in the same
// iteration for the first 300 of 600, then loads a word nothing wrote: the
// load's memory dependence is an unbroken <k,k> ramp in the early epochs (a
// synthesized segment), a stored segment in the epoch where it stops, and
// absent after.
func rampProgram() *ir.Program {
	p := ir.NewProgram(64)
	fb := p.NewFunc("main", 0)
	early, addr, v, sum := fb.NewReg(), fb.NewReg(), fb.NewReg(), fb.ConstReg(0)
	fb.For(ir.Imm(0), ir.Imm(600), ir.Imm(1), func(i ir.Reg) {
		fb.Lt(early, ir.R(i), ir.Imm(300))
		fb.Sub(addr, ir.Imm(6), ir.R(early))
		fb.Store(ir.Imm(5), 0, ir.R(i))
		fb.Load(v, ir.R(addr), 0)
		fb.Add(sum, ir.R(sum), ir.R(v))
	})
	fb.Output(ir.R(sum))
	fb.Halt()
	p.MustFinalize()
	return p
}

// TestFederatedCursorRandomWalk drives federated cursors — node timestamps
// and both label sides of edges with stored, shared and ramp segments — through random Next, Prev, Seek, NextN and PrevN steps against
// the sequence's own forward drain. A cursor resolves a segment and spawns
// its cursor when a read enters it, and keeps none of a segment it has
// left, so the walk crosses, leaves and re-enters segments in every
// direction.
func TestFederatedCursorRandomWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	walk := func(what string, fresh func() core.Seq) {
		want := drainSeq(fresh())
		s := fresh()
		buf := make([]uint32, 40)
		for step := 0; step < 400; step++ {
			pos := s.Pos()
			switch op := rng.Intn(6); {
			case op == 0 && pos < len(want):
				if v := s.Next(); v != want[pos] {
					t.Fatalf("%s: Next at %d = %d, want %d", what, pos, v, want[pos])
				}
			case op == 1 && pos > 0:
				if v := s.Prev(); v != want[pos-1] {
					t.Fatalf("%s: Prev at %d = %d, want %d", what, pos, v, want[pos-1])
				}
			case op == 2:
				s.Seek(rng.Intn(len(want) + 1))
			case op == 3:
				n := s.NextN(buf[:rng.Intn(len(buf))])
				for i, v := range buf[:n] {
					if v != want[pos+i] {
						t.Fatalf("%s: NextN at %d+%d = %d, want %d", what, pos, i, v, want[pos+i])
					}
				}
				if s.Pos() != pos+n {
					t.Fatalf("%s: NextN read %d from %d and stands at %d", what, n, pos, s.Pos())
				}
			case op == 4:
				n := s.PrevN(buf[:rng.Intn(len(buf))])
				for i, v := range buf[:n] {
					if v != want[pos-1-i] {
						t.Fatalf("%s: PrevN at %d-%d = %d, want %d", what, pos, i, v, want[pos-1-i])
					}
				}
				if s.Pos() != pos-n {
					t.Fatalf("%s: PrevN read %d from %d and stands at %d", what, n, pos, s.Pos())
				}
			}
		}
	}
	wl, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	gzip, gzipIn := wl.Build(1)
	kinds := map[string]int{}
	for _, pg := range []struct {
		p  *ir.Program
		in []int64
	}{{gzip, gzipIn}, {rampProgram(), nil}} {
		st, err := interp.Analyze(pg.p)
		if err != nil {
			t.Fatal(err)
		}
		w, _, _, err := core.BuildStreaming(st, interp.Options{Inputs: pg.in}, core.FreezeOptions{EpochTS: 1 << 6})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range w.Nodes {
			if len(n.TSSegs) > 1 {
				walk("node timestamps", func() core.Seq { return w.TSSeq(n, core.Tier2) })
				kinds["timestamps"]++
			}
		}
		for _, e := range w.Edges {
			if len(e.Segs) < 2 {
				continue
			}
			walk("edge destinations", func() core.Seq { d, _ := w.EdgeLabels(e, core.Tier2); return d })
			walk("edge sources", func() core.Seq { _, s := w.EdgeLabels(e, core.Tier2); return s })
			for _, sg := range e.Segs {
				switch {
				case sg.Inferable:
					kinds["ramp"]++
				case sg.SharedWith >= 0:
					kinds["shared"]++
				default:
					kinds["stored"]++
				}
			}
		}
	}
	for _, kind := range []string{"timestamps", "ramp", "shared", "stored"} {
		if kinds[kind] == 0 {
			t.Errorf("walked no %s segments (%v)", kind, kinds)
		}
	}
}

// TestStreamingDeterminism: the streamed representation must not depend on
// the worker count — stream bytes, segment structure, and report all agree
// between a serial and a parallel build.
func TestStreamingDeterminism(t *testing.T) {
	_, w1 := buildBoth(t, "li", 20000, 1<<8, 1)
	_, w8 := buildBoth(t, "li", 20000, 1<<8, 8)
	r1, r8 := w1.Report(), w8.Report()
	if r1.T2TS != r8.T2TS || r1.T2Vals != r8.T2Vals || r1.T2Edges != r8.T2Edges ||
		r1.InferableEdges != r8.InferableEdges || r1.SharedEdges != r8.SharedEdges || r1.OwnedEdges != r8.OwnedEdges {
		t.Fatalf("reports differ between worker counts:\n%v\nvs\n%v", r1, r8)
	}
	for i, n1 := range w1.Nodes {
		n8 := w8.Nodes[i]
		if len(n1.TSSegs) != len(n8.TSSegs) {
			t.Fatalf("node %d segment count %d vs %d", i, len(n1.TSSegs), len(n8.TSSegs))
		}
		for si, sg := range n1.TSSegs {
			if sg.Epoch != n8.TSSegs[si].Epoch || sg.N != n8.TSSegs[si].N || sg.S.SizeBits() != n8.TSSegs[si].S.SizeBits() || sg.S.Name() != n8.TSSegs[si].S.Name() {
				t.Fatalf("node %d ts segment %d differs between worker counts", i, si)
			}
		}
	}
	for i, e1 := range w1.Edges {
		e8 := w8.Edges[i]
		if e1.Inferable != e8.Inferable || len(e1.Segs) != len(e8.Segs) {
			t.Fatalf("edge %d shape differs between worker counts", i)
		}
		for si, sg := range e1.Segs {
			s8 := e8.Segs[si]
			if sg.Inferable != s8.Inferable || sg.SharedWith != s8.SharedWith || sg.SharedSeg != s8.SharedSeg || sg.RampBase != s8.RampBase || sg.N != s8.N {
				t.Fatalf("edge %d segment %d differs between worker counts", i, si)
			}
		}
	}
}

// TestStreamingEpochZeroFallback: EpochTS=0 must take the exact single-epoch
// path — unsegmented output with a report identical to Build+Freeze.
func TestStreamingEpochZeroFallback(t *testing.T) {
	wl, err := workload.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	prog, in := wl.Build(3)
	st, err := interp.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	w, rep, _, err := core.BuildStreaming(st, interp.Options{Inputs: in}, core.FreezeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if w.Segmented() || w.EpochTS != 0 {
		t.Fatalf("EpochTS=0 build is segmented")
	}
	prog2, in2 := wl.Build(3)
	st2, err := interp.Analyze(prog2)
	if err != nil {
		t.Fatal(err)
	}
	w2, _, err := core.Build(st2, interp.Options{Inputs: in2})
	if err != nil {
		t.Fatal(err)
	}
	rep2 := freeze(t, w2, core.FreezeOptions{})
	if rep.T2Total() != rep2.T2Total() || rep.T1Total() != rep2.T1Total() || rep.OrigTotal() != rep2.OrigTotal() {
		t.Fatalf("EpochTS=0 report differs from Build+Freeze:\n%v\nvs\n%v", rep, rep2)
	}
}

// TestOneEpochMatchesSingleEpoch: a single-epoch build and a streamed build
// whose one epoch holds the whole run report the same sizes, field by
// field.
func TestOneEpochMatchesSingleEpoch(t *testing.T) {
	for _, wl := range workload.All() {
		prog, in := wl.Build(1)
		st, err := interp.Analyze(prog)
		if err != nil {
			t.Fatal(err)
		}
		var reps [2]*core.SizeReport
		for i, epochTS := range []uint32{0, 1 << 31} {
			w, rep, _, err := core.BuildStreaming(st, interp.Options{Inputs: in}, core.FreezeOptions{EpochTS: epochTS})
			if err != nil {
				t.Fatalf("%s: %v", wl.Name, err)
			}
			if w.Segmented() != (epochTS > 0) {
				t.Fatalf("%s, EpochTS=%d: Segmented() = %v", wl.Name, epochTS, w.Segmented())
			}
			reps[i] = rep
		}
		if !reflect.DeepEqual(reps[0], reps[1]) {
			t.Errorf("%s: single epoch\n%+v\none epoch\n%+v", wl.Name, *reps[0], *reps[1])
		}
	}
}
