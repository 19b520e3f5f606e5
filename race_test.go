package wet_test

// Cross-representation property test for the race detector: the report is a
// function of the trace, not of how the trace is held. Every concurrent
// workload variant must yield identical findings from tier-1 raw slices,
// tier-2 compressed cursors, an eager re-open, and a lazy re-open — and the
// seeded ground truth must hold throughout (racy flavours report definite
// races, clean flavours report nothing). CI runs this under -race.

import (
	"bytes"
	"reflect"
	"testing"

	"wet"
	"wet/internal/workload"
)

func TestRaceReportCrossTierAndOpenPath(t *testing.T) {
	for _, wl := range workload.ConcAll() {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			prog, in := wl.Build(1)
			tr, _, err := wet.Run(prog, wet.WithInputs(in...), wet.WithSeed(11))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := tr.Races() // tier 2, in-memory build
			if err != nil {
				t.Fatal(err)
			}
			if wl.Racy != ref.Racy() {
				t.Fatalf("racy=%v but report.Racy()=%v: %+v", wl.Racy, ref.Racy(), ref.Races)
			}
			if !wl.Racy && len(ref.Races) != 0 {
				t.Fatalf("clean variant reported findings: %v", ref.Races)
			}
			t1, err := tr.AtTier(wet.Tier1).Races()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref.Races, t1.Races) {
				t.Fatalf("tier-1 and tier-2 reports differ:\n%v\n%v", t1.Races, ref.Races)
			}

			var buf bytes.Buffer
			if err := tr.Save(&buf); err != nil {
				t.Fatal(err)
			}
			eager, _, err := wet.Open(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			re, err := eager.Races()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref.Races, re.Races) {
				t.Fatalf("eager re-open report differs:\n%v\n%v", re.Races, ref.Races)
			}
			lazy, _, err := wet.Open(bytes.NewReader(buf.Bytes()), wet.WithLazy())
			if err != nil {
				t.Fatal(err)
			}
			rl, err := lazy.Races()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref.Races, rl.Races) {
				t.Fatalf("lazy re-open report differs:\n%v\n%v", rl.Races, ref.Races)
			}
		})
	}
}

// TestRaceReportUnderByteBudget: a byte budget below a concurrent trace's
// lossless floor degrades it on both build routes, the degraded container
// survives a strict save and open and validates, and the race report of
// the reopened trace is the unbudgeted one. The ladder drops value groups
// and dependence labels only; the race detector reads neither.
func TestRaceReportUnderByteBudget(t *testing.T) {
	wl, err := workload.ConcByName("li-conc-racy")
	if err != nil {
		t.Fatal(err)
	}
	prog, in := wl.Build(1)
	for _, epochTS := range []uint32{0, 1 << 8} {
		run := func(opts ...wet.RunOption) *wet.Trace {
			tr, _, err := wet.Run(prog, append([]wet.RunOption{wet.WithInputs(in...), wet.WithEpochTS(epochTS)}, opts...)...)
			if err != nil {
				t.Fatalf("epoch %d: %v", epochTS, err)
			}
			return tr
		}
		base := run()
		want, err := base.Races()
		if err != nil || !want.Racy() {
			t.Fatalf("epoch %d: unbudgeted report %+v, error %v; want races", epochTS, want, err)
		}
		floor := uint64(len(saveBytes(t, base)))
		tr := run(wet.WithByteBudget(floor * 85 / 100))
		if fid := tr.Fidelity(); !fid.Degraded() {
			t.Fatalf("epoch %d: a budget of 85%% of the floor (%d B) degraded nothing", epochTS, floor)
		}
		loaded, _, err := wet.Open(bytes.NewReader(saveBytes(t, tr)))
		if err != nil {
			t.Fatalf("epoch %d: strict open: %v", epochTS, err)
		}
		if err := loaded.WET().Validate(); err != nil {
			t.Fatalf("epoch %d: reopened trace: %v", epochTS, err)
		}
		got, err := loaded.Races()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Races, got.Races) {
			t.Fatalf("epoch %d: budgeted report differs:\n%v\n%v", epochTS, got.Races, want.Races)
		}
	}
}
