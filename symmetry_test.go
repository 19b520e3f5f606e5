package wet_test

// Count-based checks of the paper's §4 claim that the bidirectional
// compressor makes backward traversal cost what forward traversal costs.
// No timing: Trace.SeekStats counts the cursor steps walked on behalf of
// seeks, and the counts repeat exactly. A change to how queries probe
// (internal/query/walker.go) or to checkpoint placement moves them; update
// the pinned numbers on purpose when it does.

import (
	"bytes"
	"maps"
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

// TestBackwardCFWalksNoMoreThanForward: on a reopened multi-epoch container
// a whole backward control-flow extraction walks at most 1.5x the seek steps
// of the forward one.
func TestBackwardCFWalksNoMoreThanForward(t *testing.T) {
	tr := reopenedLi(t)
	var nf, nb uint64
	fwd := seekDelta(tr, func() { nf = tr.ExtractControlFlow(true, func(int) {}) })
	bwd := seekDelta(tr, func() { nb = tr.ExtractControlFlow(false, func(int) {}) })
	if nf != nb || nf == 0 {
		t.Fatalf("forward visited %d statements, backward %d", nf, nb)
	}
	t.Logf("forward %+v, backward %+v over %d statements", fwd, bwd, nf)
	if 2*bwd.Steps > 3*fwd.Steps {
		t.Errorf("backward extraction walked %d seek steps, forward %d: more than 1.5x", bwd.Steps, fwd.Steps)
	}
	want := [2]wet.SeekStats{wantCFForward, wantCFBackward}
	if got := [2]wet.SeekStats{fwd, bwd}; got != want {
		t.Errorf("seek counts (forward, backward) = %+v, pinned %+v", got, want)
	}
}

// spacedCriteria returns the last statement of the node executing at four
// evenly spaced points of the run.
func spacedCriteria(t *testing.T, tr *wet.Trace) (crit []wet.Instance) {
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

// TestBackwardSliceStepsPerSeek: a batch of backward slices on li, the
// workload whose label probes jump furthest, is a sweep, not a search: it
// seeks less than once per 32 instances (the worklist it replaced sought
// twice per instance, 19,280 times here) and the steps those seeks walk stay
// under 2 per instance.
func TestBackwardSliceStepsPerSeek(t *testing.T) {
	tr := runWorkload(t, "li")
	instances := 0
	got := seekDelta(tr, func() {
		for _, c := range spacedCriteria(t, tr) {
			res, err := tr.Backward(c, 0)
			if err != nil {
				t.Fatal(err)
			}
			instances += len(res.Instances)
		}
	})
	t.Logf("%+v over %d slice instances", got, instances)
	if got.Seeks == 0 || 32*got.Seeks > uint64(instances) || got.Steps > 2*uint64(instances) {
		t.Errorf("backward slice batch of %d instances took %d seeks walking %d steps: more than 1 seek per 32 or 2 steps per instance",
			instances, got.Seeks, got.Steps)
	}
	if got != wantSliceBatch {
		t.Errorf("seek counts = %+v, pinned %+v", got, wantSliceBatch)
	}
}

// TestForwardSliceReadsEachEdgeOnce: a forward slice inverts each edge it
// touches with one pass over fresh cursors, so however many instances it goes
// on to pop per edge — 300 or all of them — it never seeks. The rescanning
// slicer it replaced rewound every out-edge's source labels for every popped
// instance and sought once per hit.
func TestForwardSliceReadsEachEdgeOnce(t *testing.T) {
	for _, tr := range []*wet.Trace{runWorkload(t, "li"), reopenedLi(t)} {
		crit := spacedCriteria(t, tr)
		for _, c := range crit[:2] {
			crit = append(crit, wet.Instance{Node: c.Node, Pos: 0, Ord: c.Ord})
		}
		popped := map[int]int{}
		for _, limit := range []int{300, 0} {
			got := seekDelta(tr, func() {
				for _, c := range crit {
					res, err := tr.Forward(c, limit)
					if err != nil {
						t.Fatal(err)
					}
					popped[limit] += len(res.Instances)
				}
			})
			t.Logf("cap %d: %+v over %d slice instances", limit, got, popped[limit])
			if got != wantForwardSlices {
				t.Errorf("cap %d: six forward slices moved the seek counters by %+v, pinned %+v", limit, got, wantForwardSlices)
			}
		}
		if popped[300] == 0 || popped[0] < 100*popped[300] {
			t.Errorf("capped slices popped %d instances, uncapped %d: want a hundredfold difference", popped[300], popped[0])
		}
	}
}

// TestSampleTracesReadInRuns: the whole-program sample extractions step their
// streams forward in batches. Every load value trace together costs no seek
// at all; the address traces seek only where a producer's ordinals jump
// outside the window its reader holds, or a later statement rewinds a reader
// an earlier one drained — a hundredth of the 15,521 seeks (5,535 steps) the
// per-sample readers issued on this container.
func TestSampleTracesReadInRuns(t *testing.T) {
	tr := reopenedLi(t)
	var nv, na uint64
	vals := seekDelta(tr, func() { nv, _ = query.LoadValueTraces(tr.WET(), tr.Tier(), func(int, wet.Sample) {}) })
	addrs := seekDelta(tr, func() { na, _ = query.AddressTraces(tr.WET(), tr.Tier(), func(int, wet.Sample) {}) })
	if nv == 0 || na == 0 {
		t.Fatalf("extracted %d value and %d address samples", nv, na)
	}
	t.Logf("values %+v over %d samples, addresses %+v over %d samples", vals, nv, addrs, na)
	if vals != (wet.SeekStats{}) {
		t.Errorf("LoadValueTraces moved the seek counters by %+v, want no seek", vals)
	}
	if addrs != wantAddressTraces {
		t.Errorf("AddressTraces seek counts = %+v, pinned %+v", addrs, wantAddressTraces)
	}
}

// TestTimestampLookupsDecodeOneEpoch: on a lazily opened li in epochs of 256
// timestamps, a control-flow window inside one epoch, and InstanceOfTS at a
// timestamp in it, decode timestamp segments of that epoch and nothing else:
// the nodes a search reads before the one that executed there, and the CF
// neighbours a walk probes. The scans they replaced read every node they
// searched from its first timestamp, through every earlier epoch.
func TestTimestampLookupsDecodeOneEpoch(t *testing.T) {
	data := saveBytes(t, runWorkload(t, "li", wet.WithEpochTS(1<<8)))
	open := func() *wet.Trace {
		tr, _, err := wet.Open(bytes.NewReader(data), wet.WithLazy())
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	// decoded counts the deferred timestamp segments decoded so far, by
	// epoch (packed and verbatim streams are never deferred).
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
	epoch := tr.Epochs() / 2
	from := uint32(epoch)<<8 + 40
	if _, err := tr.ExtractCFRange(from, from+100, nil); err != nil {
		t.Fatal(err)
	}
	wk := tr.Walker()
	if err := wk.StartAt(from + 50); err != nil {
		t.Fatal(err)
	}
	stmt := tr.WET().Nodes[wk.Node].Stmts[0].ID
	cf := decoded(tr)

	tr = open()
	if _, err := tr.InstanceOfTS(stmt, from+50); err != nil {
		t.Fatal(err)
	}
	inst := decoded(tr)
	t.Logf("epoch %d of %d: window decoded %v, InstanceOfTS %v", epoch, tr.Epochs(), cf, inst)
	if want := map[int]int{epoch: wantWindowSegs}; !maps.Equal(cf, want) {
		t.Errorf("a window in epoch %d decoded timestamp segments %v, pinned %v", epoch, cf, want)
	}
	if want := map[int]int{epoch: wantInstanceSegs}; !maps.Equal(inst, want) {
		t.Errorf("InstanceOfTS in epoch %d decoded timestamp segments %v, pinned %v", epoch, inst, want)
	}
}

// wantSliceBatch includes spacedCriteria's StartAt, which runs inside the
// delta: its lookups read windows on and never seek back over what a batch
// decoded past the target, as findOrdered did (201 seeks walking 16,601
// steps before PR 25).
var (
	wantCFForward     = wet.SeekStats{}
	wantCFBackward    = wet.SeekStats{Seeks: 39, Restores: 35} // a window enters each segment backward at its end
	wantSliceBatch    = wet.SeekStats{Seeks: 192, Restores: 75, Steps: 16481}
	wantForwardSlices = wet.SeekStats{}

	wantAddressTraces = wet.SeekStats{Seeks: 156, Restores: 40}

	wantWindowSegs   = 3
	wantInstanceSegs = 3
)
