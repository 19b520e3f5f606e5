package wet_test

// Count-based checks of the paper's §4 claim that the bidirectional
// compressor makes backward traversal cost what forward traversal costs.
// No timing: Trace.SeekStats counts the cursor steps walked on behalf of
// seeks, and the counts repeat exactly. The tests here check the claims as
// bounds; TestExactCounts pins the exact counts the same measurements give
// (testdata/counts.json). A change to how queries probe
// (internal/query/walker.go) or to checkpoint placement moves them; update
// the counts file on purpose when it does.

import (
	"bytes"
	"testing"

	"wet"
	"wet/internal/query"
	"wet/internal/stream"
)

// seekDelta runs f and returns the seek counters it moved on tr.
func seekDelta(tr *wet.Trace, f func()) wet.SeekStats {
	before := tr.SeekStats()
	f()
	return tr.SeekStats().Sub(before)
}

// reopenedLi returns li recorded in epochs, saved and opened again: journey
// 2, where every cursor is a federation of segment cursors.
func reopenedLi(t *testing.T) *wet.Trace {
	t.Helper()
	tr, _, err := wet.Open(bytes.NewReader(saveBytes(t, runWorkload(t, "li", wet.WithEpochTS(1<<10)))))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Epochs() < 2 {
		t.Fatalf("want a multi-epoch container, got %d epoch(s)", tr.Epochs())
	}
	return tr
}

// cfSeeks extracts reopenedLi's whole control flow forward, then backward,
// and returns the seek counters each direction moved and the statements it
// visited.
func cfSeeks(t *testing.T) (fwd, bwd wet.SeekStats, nf, nb uint64) {
	t.Helper()
	tr := reopenedLi(t)
	fwd = seekDelta(tr, func() { nf = tr.ExtractControlFlow(true, func(int) {}) })
	bwd = seekDelta(tr, func() { nb = tr.ExtractControlFlow(false, func(int) {}) })
	return fwd, bwd, nf, nb
}

// TestBackwardCFWalksNoMoreThanForward: on a reopened multi-epoch container
// a whole backward control-flow extraction walks at most 1.5x the seek steps
// of the forward one, and the forward one never seeks.
func TestBackwardCFWalksNoMoreThanForward(t *testing.T) {
	fwd, bwd, nf, nb := cfSeeks(t)
	if nf != nb || nf == 0 {
		t.Fatalf("forward visited %d statements, backward %d", nf, nb)
	}
	t.Logf("forward %+v, backward %+v over %d statements", fwd, bwd, nf)
	if 2*bwd.Steps > 3*fwd.Steps {
		t.Errorf("backward extraction walked %d seek steps, forward %d: more than 1.5x", bwd.Steps, fwd.Steps)
	}
	if fwd != (wet.SeekStats{}) {
		t.Errorf("forward extraction moved the seek counters by %+v, want no seek", fwd)
	}
}

// spacedCriteria returns the last statement of the node executing at four
// evenly spaced points of the run.
func spacedCriteria(t testing.TB, tr *wet.Trace) (crit []wet.Instance) {
	t.Helper()
	for k := uint32(1); k < 8; k += 2 {
		wk := tr.Walker()
		if err := wk.StartAt(tr.Time() * k / 8); err != nil {
			t.Fatal(err)
		}
		crit = append(crit, wet.Instance{Node: wk.Node, Pos: len(tr.WET().Nodes[wk.Node].Stmts) - 1, Ord: wk.Ord})
	}
	return crit
}

// sliceBatch runs uncapped backward slices from spacedCriteria's instances
// and returns the seek counters they moved (spacedCriteria's StartAt
// included: its lookups read windows on and never seek back over what a
// batch decoded past the target) and the instances they reached.
func sliceBatch(t *testing.T, tr *wet.Trace) (got wet.SeekStats, instances int) {
	t.Helper()
	got = seekDelta(tr, func() {
		for _, c := range spacedCriteria(t, tr) {
			res, err := tr.Backward(c, 0)
			if err != nil {
				t.Fatal(err)
			}
			instances += len(res.Instances)
		}
	})
	return got, instances
}

// TestBackwardSliceStepsPerSeek: a batch of backward slices on li, the
// workload whose label probes jump furthest, is a sweep, not a search: it
// seeks less than once per 32 instances (the worklist it replaced sought
// twice per instance, 19,280 times here) and the steps those seeks walk stay
// under 2 per instance.
func TestBackwardSliceStepsPerSeek(t *testing.T) {
	got, instances := sliceBatch(t, runWorkload(t, "li"))
	t.Logf("%+v over %d slice instances", got, instances)
	if got.Seeks == 0 || 32*got.Seeks > uint64(instances) || got.Steps > 2*uint64(instances) {
		t.Errorf("backward slice batch of %d instances took %d seeks walking %d steps: more than 1 seek per 32 or 2 steps per instance",
			instances, got.Seeks, got.Steps)
	}
}

// forwardCriteria returns six instances of tr: spacedCriteria's four and the
// first statements of two of their nodes.
func forwardCriteria(t testing.TB, tr *wet.Trace) []wet.Instance {
	t.Helper()
	crit := spacedCriteria(t, tr)
	for _, c := range crit[:2] {
		crit = append(crit, wet.Instance{Node: c.Node, Pos: 0, Ord: c.Ord})
	}
	return crit
}

// forwardSlices runs forward slices capped at limit from forwardCriteria's
// instances and returns the seek counters they moved, the instances they
// popped and the edges they could read: the out-edges with labels of each
// slice's member positions, summed over the slices.
func forwardSlices(t *testing.T, tr *wet.Trace, limit int) (got wet.SeekStats, popped, edges int) {
	t.Helper()
	crit := forwardCriteria(t, tr)
	w := tr.WET()
	got = seekDelta(tr, func() {
		for _, c := range crit {
			res, err := tr.Forward(c, limit)
			if err != nil {
				t.Fatal(err)
			}
			popped += len(res.Instances)
			pos := map[[2]int]bool{}
			for _, in := range res.Instances {
				pos[[2]int{in.Node, in.Pos}] = true
			}
			for p := range pos {
				for _, ei := range w.Nodes[p[0]].OutEdges[p[1]] {
					if !w.Edges[ei].Inferable {
						edges++
					}
				}
			}
		}
	})
	return got, popped, edges
}

// TestForwardSliceReadsEachEdgeOnce: a forward slice walks forward in time
// from its criterion and reads each edge whose source position holds a member
// from one placement on, however many instances it goes on to pop per edge —
// 300 or all of them. The placement probes the interior checkpoints of a long
// destination stream (a seek each, binary search) and seeks it once more to
// the last probe below the visited execution; the source labels are sought
// once, at the first label that names it. Over these slices that stays within
// twice per out-edge with labels of their member positions, plus once per
// slice for its criterion's timestamp (counts.json pins the exact counts). A
// slicer that inverted every edge it touched never sought but decoded all of
// the edge's labels; one that rescanned an edge's source labels for every
// popped instance sought once per hit.
func TestForwardSliceReadsEachEdgeOnce(t *testing.T) {
	for _, tr := range []*wet.Trace{runWorkload(t, "li"), reopenedLi(t)} {
		popped := map[int]int{}
		for _, limit := range []int{300, 0} {
			got, n, edges := forwardSlices(t, tr, limit)
			popped[limit] = n
			t.Logf("cap %d: %+v over %d slice instances, %d out-edges with labels", limit, got, n, edges)
			if bound := uint64(2*edges + 6); got.Seeks == 0 || got.Seeks > bound {
				t.Errorf("cap %d: six forward slices sought %d times, want 1 to %d", limit, got.Seeks, bound)
			}
		}
		if popped[300] == 0 || popped[0] < 100*popped[300] {
			t.Errorf("capped slices popped %d instances, uncapped %d: want a hundredfold difference", popped[300], popped[0])
		}
	}
}

// sampleTraceSeeks runs every load value trace, then every address trace,
// on reopenedLi and returns the seek counters each pass moved and the
// samples it extracted.
func sampleTraceSeeks(t *testing.T) (vals, addrs wet.SeekStats, nv, na uint64) {
	t.Helper()
	tr := reopenedLi(t)
	vals = seekDelta(tr, func() { nv, _ = query.LoadValueTraces(tr.WET(), tr.Tier(), func(int, wet.Sample) {}) })
	addrs = seekDelta(tr, func() { na, _ = query.AddressTraces(tr.WET(), tr.Tier(), func(int, wet.Sample) {}) })
	return vals, addrs, nv, na
}

// TestSampleTracesReadInRuns: the whole-program sample extractions step their
// streams forward in batches. Every load value trace together costs no seek
// at all; the address traces seek only where a producer's ordinals jump
// outside the window its reader holds, or a later statement rewinds a reader
// an earlier one drained — a hundredth of the 15,521 seeks (5,535 steps) the
// per-sample readers issued on this container (TestExactCounts pins them).
func TestSampleTracesReadInRuns(t *testing.T) {
	vals, addrs, nv, na := sampleTraceSeeks(t)
	if nv == 0 || na == 0 {
		t.Fatalf("extracted %d value and %d address samples", nv, na)
	}
	t.Logf("values %+v over %d samples, addresses %+v over %d samples", vals, nv, addrs, na)
	if vals != (wet.SeekStats{}) {
		t.Errorf("LoadValueTraces moved the seek counters by %+v, want no seek", vals)
	}
}

// timestampLookupSegments opens li, recorded in epochs of 256 timestamps,
// lazily twice. On the first it reads a control-flow window of 100
// timestamps inside the middle epoch and starts a walker in it; on the
// second it asks InstanceOfTS at a timestamp in it. It returns that epoch
// and the deferred timestamp segments each decoded, by epoch (packed and
// verbatim streams are never deferred).
func timestampLookupSegments(t *testing.T) (epoch int, cf, inst map[int]int) {
	t.Helper()
	data := saveBytes(t, runWorkload(t, "li", wet.WithEpochTS(1<<8)))
	open := func() *wet.Trace {
		tr, _, err := wet.Open(bytes.NewReader(data), wet.WithLazy())
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	decoded := func(tr *wet.Trace) map[int]int {
		got := map[int]int{}
		for _, n := range tr.WET().Nodes {
			for _, sg := range n.TSSegs {
				if _, deferred := sg.S.(*stream.Evictable); deferred && stream.Materialized(sg.S) {
					got[sg.Epoch]++
				}
			}
		}
		return got
	}
	tr := open()
	epoch = tr.Epochs() / 2
	from := uint32(epoch)<<8 + 40
	if _, err := tr.ExtractCFRange(from, from+100, nil); err != nil {
		t.Fatal(err)
	}
	wk := tr.Walker()
	if err := wk.StartAt(from + 50); err != nil {
		t.Fatal(err)
	}
	stmt := tr.WET().Nodes[wk.Node].Stmts[0].ID
	cf = decoded(tr)

	tr = open()
	if _, err := tr.InstanceOfTS(stmt, from+50); err != nil {
		t.Fatal(err)
	}
	return epoch, cf, decoded(tr)
}

// TestTimestampLookupsDecodeOneEpoch: on a lazily opened li in epochs of 256
// timestamps, a control-flow window inside one epoch, and InstanceOfTS at a
// timestamp in it, decode timestamp segments of that epoch and nothing else:
// the nodes a search reads before the one that executed there, and the CF
// neighbours a walk probes. The scans they replaced read every node they
// searched from its first timestamp, through every earlier epoch.
func TestTimestampLookupsDecodeOneEpoch(t *testing.T) {
	epoch, cf, inst := timestampLookupSegments(t)
	t.Logf("epoch %d: window decoded %v, InstanceOfTS %v", epoch, cf, inst)
	for what, got := range map[string]map[int]int{"a window": cf, "InstanceOfTS": inst} {
		if len(got) != 1 || got[epoch] == 0 {
			t.Errorf("%s in epoch %d decoded timestamp segments %v, want some of that epoch only", what, epoch, got)
		}
	}
}
