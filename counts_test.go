package wet_test

// Pins the exact counts the system produces, in one file: stored bytes per
// component and tier, the tier-2 method census, and the cursor seek
// counters of fixed query batches. Counts repeat exactly where timings do
// not, so a change that moves one shows as a one-file JSON diff. Regenerate
// testdata/counts.json on the commit whose counts are the new reference
// with
//
//	go test -run TestExactCounts -update-golden .

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"wet"
)

// componentBytes is one tier's stored bytes per WET component.
type componentBytes struct {
	TS    uint64 `json:"ts"`
	Vals  uint64 `json:"vals"`
	Edges uint64 `json:"edges"`
}

// programCounts is one counted program on one build route.
type programCounts struct {
	Workload string         `json:"workload"`
	Scale    int            `json:"scale"`
	EpochTS  uint32         `json:"epoch_ts"`
	T1       componentBytes `json:"t1"`
	T2       componentBytes `json:"t2"`
	Methods  map[string]int `json:"methods"`
	// SliceBatch is the seek traffic of uncapped backward slices from
	// spacedCriteria's four instances.
	SliceBatch wet.SeekStats `json:"slice_batch"`
}

// symmetryCounts are the seek and decode counts behind symmetry_test.go's
// claims (see the test each one is named after there).
type symmetryCounts struct {
	CFForward        wet.SeekStats   `json:"cf_forward"`
	CFBackward       wet.SeekStats   `json:"cf_backward"`
	SliceBatch       wet.SeekStats   `json:"slice_batch"`
	ForwardSlices    []wet.SeekStats `json:"forward_slices"`
	AddressTraces    wet.SeekStats   `json:"address_traces"`
	WindowSegments   int             `json:"window_segments"`
	InstanceSegments int             `json:"instance_segments"`
}

type countsFile struct {
	Symmetry symmetryCounts  `json:"symmetry"`
	Programs []programCounts `json:"programs"`
}

// countedPrograms: gzip and vortex at scale 1, and go at scale 8, the
// smallest at which FCM and dFCM win some of its streams; each
// single-epoch and in epochs.
var countedPrograms = []struct {
	workload string
	scale    int
	epochTS  uint32
}{
	{"gzip", 1, 0}, {"gzip", 1, 1 << 11},
	{"go", 8, 0}, {"go", 8, 1 << 11},
	{"vortex", 1, 0}, {"vortex", 1, 1 << 11},
}

func countProgram(t *testing.T, name string, scale int, epochTS uint32) programCounts {
	t.Helper()
	wl, err := wet.WorkloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, in := wl.Build(scale)
	tr, _, err := wet.Run(prog, wet.WithInputs(in...), wet.WithEpochTS(epochTS))
	if err != nil {
		t.Fatalf("%s/%d: %v", name, epochTS, err)
	}
	sz := tr.Report().Size
	batch, _ := sliceBatch(t, tr)
	return programCounts{
		Workload: name, Scale: scale, EpochTS: epochTS,
		T1:         componentBytes{sz.T1TS, sz.T1Vals, sz.T1Edges},
		T2:         componentBytes{sz.T2TS, sz.T2Vals, sz.T2Edges},
		Methods:    sz.Methods,
		SliceBatch: batch,
	}
}

func countSymmetry(t *testing.T) symmetryCounts {
	t.Helper()
	var c symmetryCounts
	c.CFForward, c.CFBackward, _, _ = cfSeeks(t)
	c.SliceBatch, _ = sliceBatch(t, runWorkload(t, "li"))
	for _, tr := range []*wet.Trace{runWorkload(t, "li"), reopenedLi(t)} {
		for _, limit := range []int{300, 0} {
			got, _ := forwardSlices(t, tr, limit)
			c.ForwardSlices = append(c.ForwardSlices, got)
		}
	}
	_, c.AddressTraces, _, _ = sampleTraceSeeks(t)
	_, cf, inst := timestampLookupSegments(t)
	for _, n := range cf {
		c.WindowSegments += n
	}
	for _, n := range inst {
		c.InstanceSegments += n
	}
	return c
}

func TestExactCounts(t *testing.T) {
	path := filepath.Join("testdata", "counts.json")
	got := countsFile{Symmetry: countSymmetry(t)}
	for _, c := range countedPrograms {
		got.Programs = append(got.Programs, countProgram(t, c.workload, c.scale, c.epochTS))
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want countsFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	diff := func(what string, g, w any) {
		gj, _ := json.Marshal(g)
		wj, _ := json.Marshal(w)
		if string(gj) != string(wj) {
			t.Errorf("%s = %s, pinned %s", what, gj, wj)
		}
	}
	diff("symmetry", got.Symmetry, want.Symmetry)
	if len(want.Programs) != len(got.Programs) {
		t.Fatalf("%s has %d programs, the test counts %d", path, len(want.Programs), len(got.Programs))
	}
	for i, g := range got.Programs {
		w := want.Programs[i]
		id := fmt.Sprintf("%s/scale=%d/epoch_ts=%d", g.Workload, g.Scale, g.EpochTS)
		if w.Workload != g.Workload || w.Scale != g.Scale || w.EpochTS != g.EpochTS {
			t.Fatalf("entry %d is %s/scale=%d/epoch_ts=%d, want %s", i, w.Workload, w.Scale, w.EpochTS, id)
		}
		diff(id+" t1 bytes", g.T1, w.T1)
		diff(id+" t2 bytes", g.T2, w.T2)
		diff(id+" methods", g.Methods, w.Methods)
		diff(id+" slice batch", g.SliceBatch, w.SliceBatch)
	}
}
