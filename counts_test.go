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
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"wet"
	"wet/internal/corpus"
	"wet/internal/ir"
)

// componentBytes is one tier's stored bytes per WET component.
type componentBytes struct {
	TS    uint64 `json:"ts"`
	Vals  uint64 `json:"vals"`
	Edges uint64 `json:"edges"`
}

// programCounts is one counted program on one build route.
type programCounts struct {
	Workload string `json:"workload"`
	Scale    int    `json:"scale"`
	EpochTS  uint32 `json:"epoch_ts"`
	// SavedBytes is the length of Trace.Save's output.
	SavedBytes int            `json:"saved_bytes"`
	T1         componentBytes `json:"t1"`
	T2         componentBytes `json:"t2"`
	Report     reportCounts   `json:"report"`
	Methods    map[string]int `json:"methods"`
	// SliceBatch is the seek traffic of uncapped backward slices from
	// spacedCriteria's four instances.
	SliceBatch wet.SeekStats `json:"slice_batch"`
}

// reportCounts are the size report's edge eliminations and the in-memory
// cost of its cursor checkpoints.
type reportCounts struct {
	InferableEdges  int    `json:"inferable_edges"`
	SharedEdges     int    `json:"shared_edges"`
	OwnedEdges      int    `json:"owned_edges"`
	CheckpointBytes uint64 `json:"checkpoint_bytes"`
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

// serveCounts is the segment traffic of serveRequests calls in the serve
// workload's mix over a starved corpus, per 1,000 requests.
type serveCounts struct {
	Requests          int     `json:"requests"`
	SegmentLoadsPerKR float64 `json:"segment_loads_per_kreq"`
	EvictionsPerKR    float64 `json:"evictions_per_kreq"`
}

type countsFile struct {
	Symmetry symmetryCounts  `json:"symmetry"`
	Programs []programCounts `json:"programs"`
	Serve    serveCounts     `json:"serve"`
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
		SavedBytes: len(saveBytes(t, tr)),
		T1:         componentBytes{sz.T1TS, sz.T1Vals, sz.T1Edges},
		T2:         componentBytes{sz.T2TS, sz.T2Vals, sz.T2Edges},
		Report:     reportCounts{sz.InferableEdges, sz.SharedEdges, sz.OwnedEdges, sz.CheckpointBytes},
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

// The serve workload's programs, corpus budget and request shape.
const (
	serveEpochTS  = 1 << 8
	serveStarved  = 16 << 10 // bytes of decoded segments the corpus may keep
	serveRequests = 1000
	serveWindow   = 256 // timestamps per ExtractCFRange call
	serveSliceMax = 128 // maxInstances of Backward
)

// countServe opens li (scale 2), gzip and mcf through a corpus at a 16 KiB
// budget and runs a fixed, seeded schedule of the serve workload's mix on
// it, sequentially and in process: 60% ExtractCFRange, 20% ValueTrace, 20%
// Backward, 80% of the offsets inside a hot tenth of each trace. Segment
// loads are the corpus's misses.
func countServe(t *testing.T) serveCounts {
	t.Helper()
	type served struct {
		tr, ref *wet.Trace // the corpus's open, and an eager one to plan on
		loads   []int
	}
	corp := corpus.New(serveStarved)
	var progs []served
	for _, p := range []struct {
		name  string
		scale int
	}{{"li", 2}, {"gzip", 1}, {"mcf", 1}} {
		wl, err := wet.WorkloadByName(p.name)
		if err != nil {
			t.Fatal(err)
		}
		prog, in := wl.Build(p.scale)
		tr, _, err := wet.Run(prog, wet.WithInputs(in...), wet.WithEpochTS(serveEpochTS))
		if err != nil {
			t.Fatal(err)
		}
		data := saveBytes(t, tr)
		e, err := corp.Add(p.name, data)
		if err != nil {
			t.Fatal(err)
		}
		ref, _, err := wet.Open(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		s := served{tr: e.Trace, ref: ref}
		for _, st := range prog.Stmts {
			if st.Op == ir.OpLoad {
				s.loads = append(s.loads, st.ID)
			}
		}
		progs = append(progs, s)
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < serveRequests; k++ {
		s := progs[rng.Intn(len(progs))]
		from := hotOffset(rng, s.tr.Time())
		var err error
		switch p := rng.Float64(); {
		case p < 0.6:
			_, err = s.tr.ExtractCFRange(from, from+serveWindow-1, func(int) {})
		case p < 0.8:
			_, err = s.tr.ValueTrace(s.loads[rng.Intn(len(s.loads))], func(wet.Sample) {})
		default:
			var in wet.Instance
			if in, err = s.tr.InstanceOfTS(lastDefFrom(t, s.ref, from)); err == nil {
				_, err = s.tr.Backward(in, serveSliceMax)
			}
		}
		if err != nil {
			t.Fatalf("request %d: %v", k, err)
		}
	}
	perK := func(n uint64) float64 { return float64(n) * 1000 / serveRequests }
	return serveCounts{Requests: serveRequests, SegmentLoadsPerKR: perK(corp.Misses()), EvictionsPerKR: perK(corp.Evictions())}
}

// hotOffset draws the first timestamp of a serveWindow-long request on a
// trace of total timestamps: 80% of the draws fall in one tenth of it.
func hotOffset(rng *rand.Rand, total uint32) uint32 {
	span := total - serveWindow
	if rng.Float64() < 0.8 {
		return 1 + span*3/10 + uint32(rng.Int63n(int64(span/10)))
	}
	return 1 + uint32(rng.Int63n(int64(span)))
}

// lastDefFrom returns the first timestamp at or after ts whose node
// defines a register, with the last statement of the node that does.
func lastDefFrom(t *testing.T, tr *wet.Trace, ts uint32) (stmt int, at uint32) {
	t.Helper()
	wk := tr.Walker()
	if err := wk.StartAt(ts); err != nil {
		t.Fatal(err)
	}
	for {
		stmts := tr.WET().Nodes[wk.Node].Stmts
		for i := len(stmts) - 1; i >= 0; i-- {
			if st := stmts[i]; st.Op.HasDef() && st.Dest >= 0 {
				return st.ID, wk.TS()
			}
		}
		if !wk.Forward() {
			t.Fatalf("no definition executes at or after timestamp %d", ts)
		}
	}
}

func TestExactCounts(t *testing.T) {
	path := filepath.Join("testdata", "counts.json")
	got := countsFile{Symmetry: countSymmetry(t), Serve: countServe(t)}
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
		diff(id+" saved bytes", g.SavedBytes, w.SavedBytes)
		diff(id+" t1 bytes", g.T1, w.T1)
		diff(id+" t2 bytes", g.T2, w.T2)
		diff(id+" report", g.Report, w.Report)
		diff(id+" methods", g.Methods, w.Methods)
		diff(id+" slice batch", g.SliceBatch, w.SliceBatch)
	}
	diff("serve", got.Serve, want.Serve)
}
