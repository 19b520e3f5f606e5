package sanalysis_test

import (
	"bytes"
	"testing"

	"wet/internal/core"
	"wet/internal/interp"
	"wet/internal/ir"
	. "wet/internal/sanalysis"
	"wet/internal/stream"
	"wet/internal/wetio"
	"wet/internal/workload"
)

// buildRaw runs a workload without freezing, so tests can plant semantic
// corruptions in the tier-1 representation before compression.
func buildRaw(t *testing.T, name string, scale int) *core.WET {
	t.Helper()
	wl, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, in := wl.Build(scale)
	st, err := interp.Analyze(p)
	if err != nil {
		t.Fatalf("%s: Analyze: %v", name, err)
	}
	w, _, err := core.Build(st, interp.Options{Inputs: in, MaxSteps: 1 << 26})
	if err != nil {
		t.Fatalf("%s: Build: %v", name, err)
	}
	return w
}

// roundtrip freezes the (possibly corrupted) WET, saves it, demands that the
// byte-level CRC walk still passes — the corruptions are semantic, not
// bit rot — and loads it back for tier-2 verification.
func roundtrip(t *testing.T, w *core.WET) *core.WET {
	t.Helper()
	if _, err := w.FreezeErr(core.FreezeOptions{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wetio.Save(&buf, w); err != nil {
		t.Fatalf("Save: %v", err)
	}
	vr, err := wetio.Verify(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("byte-level Verify: %v", err)
	}
	if !vr.OK() {
		t.Fatalf("byte-level Verify rejected a semantically corrupted file; CRC must not see semantic faults: %+v", vr)
	}
	lw, err := wetio.Load(bytes.NewReader(buf.Bytes()), wetio.LoadOptions{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return lw
}

// findRule returns the findings carrying the given rule.
func findRule(rep *Report, r Rule) []Finding {
	var out []Finding
	for _, f := range rep.Findings {
		if f.Rule == r {
			out = append(out, f)
		}
	}
	return out
}

// TestCorruptDDRetarget retargets a labeled DD edge's source to a definition
// that does not statically reach the use; the semantic verifier must report
// DD001 through cursor traversal alone while the CRC layer stays green.
func TestCorruptDDRetarget(t *testing.T) {
	w := buildRaw(t, "li", 1)
	a, err := AnalyzeWithPaths(w.Prog, w.Static.Paths)
	if err != nil {
		t.Fatal(err)
	}

	planted := false
	for ei, e := range w.Edges {
		if e.Kind != core.DD || len(e.SrcOrd) == 0 {
			continue
		}
		maxOrd := 0
		for _, o := range e.SrcOrd {
			if int(o) > maxOrd {
				maxOrd = int(o)
			}
		}
		dst := w.Nodes[e.DstNode].Stmts[e.DstPos]
		// Find a replacement definition that is NOT a static reaching def
		// of the use operand, on a node executed often enough to keep the
		// existing source ordinals structurally valid.
		for ni, nd := range w.Nodes {
			if planted || nd.Execs <= maxOrd {
				continue
			}
			for pi, s := range nd.Stmts {
				if !DefinesReg(s, s.Dest) || s.Dest < 0 {
					continue
				}
				if (ni == e.SrcNode && pi == e.SrcPos) || a.IsReachingDef(s.ID, dst.ID, e.OpIdx) {
					continue
				}
				// Rehome the edge in the adjacency lists, then retarget.
				old := w.Nodes[e.SrcNode].OutEdges[e.SrcPos]
				for k, idx := range old {
					if idx == ei {
						w.Nodes[e.SrcNode].OutEdges[e.SrcPos] = append(old[:k:k], old[k+1:]...)
						break
					}
				}
				e.SrcNode, e.SrcPos = ni, pi
				nd.OutEdges[pi] = append(nd.OutEdges[pi], ei)
				planted = true
				break
			}
		}
		if planted {
			break
		}
	}
	if !planted {
		t.Fatal("no DD edge admitted a non-reaching retarget")
	}

	lw := roundtrip(t, w)
	rep, err := VerifyWET(lw, VerifyOptions{Tier: core.Tier2})
	if err != nil {
		t.Fatal(err)
	}
	if fs := findRule(rep, RuleDDStatic); len(fs) == 0 {
		t.Fatalf("retargeted DD edge not reported as %s; findings: %v", RuleDDStatic, rep.Findings)
	}
}

// TestCorruptCDAcausal rewrites one CD label pair so the branch "fires"
// after the statement it controls; the verifier must report CD002.
func TestCorruptCDAcausal(t *testing.T) {
	w := buildRaw(t, "li", 1)

	planted := false
	for _, e := range w.Edges {
		if e.Kind != core.CD || len(e.SrcOrd) == 0 {
			continue
		}
		sn, dn := w.Nodes[e.SrcNode], w.Nodes[e.DstNode]
		for k := range e.SrcOrd {
			tsDst := dn.TS[e.DstOrd[k]]
			// Point the source ordinal at a later execution of the branch
			// node than the destination it supposedly controls.
			for j := sn.Execs - 1; j >= 0; j-- {
				if sn.TS[j] < tsDst {
					break
				}
				if e.SrcNode == e.DstNode && uint32(j) == e.DstOrd[k] {
					continue // same-execution pairs are judged by position
				}
				if uint32(j) != e.SrcOrd[k] {
					e.SrcOrd[k] = uint32(j)
					planted = true
					break
				}
			}
			if planted {
				break
			}
		}
		if planted {
			break
		}
	}
	if !planted {
		t.Fatal("no CD label admitted an acausal rewrite")
	}

	lw := roundtrip(t, w)
	rep, err := VerifyWET(lw, VerifyOptions{Tier: core.Tier2})
	if err != nil {
		t.Fatal(err)
	}
	if fs := findRule(rep, RuleCDOrder); len(fs) == 0 {
		t.Fatalf("acausal CD label not reported as %s; findings: %v", RuleCDOrder, rep.Findings)
	}
}

// TestCorruptCFSplice swaps timestamps between two nodes, splicing a control
// flow transition the static CFG cannot take: the execution right after a
// call is exchanged with one that is not the callee's entry path. The
// timestamps still form a dense total order, so only the transition replay
// (CF002/CF003) can see the fault.
func TestCorruptCFSplice(t *testing.T) {
	w := buildRaw(t, "vortex", 1)

	monotoneAfterSwap := func(ts []uint32, i int, v uint32) bool {
		if i > 0 && ts[i-1] >= v {
			return false
		}
		if i+1 < len(ts) && ts[i+1] <= v {
			return false
		}
		return true
	}
	endTerm := func(n *core.Node) *ir.Stmt {
		return w.Prog.Funcs[n.Fn].Blocks[n.Blocks[len(n.Blocks)-1]].Term()
	}

	// Index which node execution owns each timestamp.
	type occ struct{ node, ord int }
	at := make([]occ, w.Time+1)
	for _, n := range w.Nodes {
		for o, ts := range n.TS {
			at[ts] = occ{n.ID, o}
		}
	}

	planted := false
	for t0 := uint32(2); t0+1 < w.Time && !planted; t0++ {
		p := w.Nodes[at[t0].node]
		term := endTerm(p)
		if term.Op != ir.OpCall {
			continue
		}
		succ := w.Nodes[at[t0+1].node] // the callee's entry path execution
		j := at[t0+1].ord
		for _, c := range w.Nodes {
			if c.ID == succ.ID || (c.Fn == term.Callee && c.Blocks[0] == 0) {
				continue // still a plausible callee entry; pick a real impostor
			}
			for k, ts2 := range c.TS {
				if ts2 == 1 || ts2 == w.Time || ts2 == t0+1 {
					continue // keep the anchors intact: we want CF002/CF003, not CF001
				}
				if !monotoneAfterSwap(succ.TS, j, ts2) || !monotoneAfterSwap(c.TS, k, t0+1) {
					continue
				}
				succ.TS[j], c.TS[k] = ts2, t0+1
				planted = true
				break
			}
			if planted {
				break
			}
		}
	}
	if !planted {
		t.Fatal("no timestamp swap produced an impossible transition")
	}
	// The replay must already see the splice in the tier-1 representation.
	rep, err := VerifyWET(w, VerifyOptions{Tier: core.Tier1})
	if err != nil {
		t.Fatal(err)
	}
	if len(findRule(rep, RuleCFTransition))+len(findRule(rep, RuleCFCallStack)) == 0 {
		t.Fatalf("spliced transition not reported in memory; findings: %v", rep.Findings)
	}

	lw := roundtrip(t, w)
	rep, err = VerifyWET(lw, VerifyOptions{Tier: core.Tier2})
	if err != nil {
		t.Fatal(err)
	}
	if len(findRule(rep, RuleCFTransition))+len(findRule(rep, RuleCFCallStack)) == 0 {
		t.Fatalf("spliced transition not reported as %s/%s; findings: %v", RuleCFTransition, RuleCFCallStack, rep.Findings)
	}
}

// TestVerifyWalksStreams pins the streaming contract: tier-2 verification
// must traverse the compressed streams through checkpointed cursors — no
// materialized sequences — which the WET's seek counters make observable.
func TestVerifyWalksStreams(t *testing.T) {
	w := buildWET(t, "gzip", 1)
	seeks := new(stream.SeekCounters)
	w.AttachSeekCounters(seeks)
	rep, err := VerifyWET(w, VerifyOptions{Tier: core.Tier2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("clean trace reported findings: %v", rep.Findings)
	}
	d := seeks.Read()
	if d.Seeks == 0 {
		t.Fatal("tier-2 verification issued no cursor seeks; it is not walking the compressed streams")
	}
	// Ordinal->timestamp lookups go through checkpointed Seek and windowed
	// reads; a generous linear bound over all lookups catches any fallback
	// to full rescans.
	bound := uint64(rep.Labels+rep.Transitions+1) * 128
	if d.Steps > bound {
		t.Fatalf("tier-2 verification stepped %d cursor positions for %d labels (bound %d): seeks are degenerating to scans", d.Steps, rep.Labels, bound)
	}
}
