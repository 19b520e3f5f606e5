package wetio

import (
	"bytes"
	"context"
	"testing"

	"wet/internal/core"
	"wet/internal/interp"
	"wet/internal/query"
	"wet/internal/workload"
)

// mustCF walks the whole control-flow trace and returns its statement count;
// a walk that fails panics with the error, as the facade's
// ExtractControlFlow does.
func mustCF(w *core.WET, tier core.Tier, forward bool, emit func(stmtID int)) uint64 {
	n, err := query.ExtractCFCtx(context.Background(), w, tier, forward, -1, emit)
	if err != nil {
		panic(err)
	}
	return n
}

func buildFrozen(t *testing.T, name string) *core.WET {
	t.Helper()
	wl, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, in := wl.Build(1)
	st, err := interp.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := core.Build(st, interp.Options{Inputs: in})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.FreezeErr(core.FreezeOptions{}); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSaveLoadRoundTrip(t *testing.T) {
	w := buildFrozen(t, "parser")
	var buf bytes.Buffer
	if err := Save(&buf, w); err != nil {
		t.Fatalf("Save: %v", err)
	}
	t.Logf("file size: %d bytes (tier-2 report: %d bytes)", buf.Len(), w.Report().T2Total())

	w2, err := Load(bytes.NewReader(buf.Bytes()), LoadOptions{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}

	// Structure matches.
	if len(w2.Nodes) != len(w.Nodes) || len(w2.Edges) != len(w.Edges) {
		t.Fatalf("loaded %d nodes / %d edges, want %d / %d",
			len(w2.Nodes), len(w2.Edges), len(w.Nodes), len(w.Edges))
	}
	if w2.Time != w.Time || w2.Raw != w.Raw {
		t.Fatalf("time/raw mismatch")
	}
	if w2.Report().T2Total() != w.Report().T2Total() {
		t.Fatalf("report mismatch: %d vs %d", w2.Report().T2Total(), w.Report().T2Total())
	}

	// The loaded tier 2 reads the control-flow trace the fresh tier 1 holds.
	var a, b []int
	mustCF(w, core.Tier1, true, func(id int) { a = append(a, id) })
	mustCF(w2, core.Tier2, true, func(id int) { b = append(b, id) })
	if len(a) != len(b) {
		t.Fatalf("CF trace length %d vs %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("CF trace differs at %d", i)
		}
	}

	// Value traces are identical.
	n1, err := query.LoadValueTraces(w, core.Tier2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sum1, sum2 int64
	query.LoadValueTraces(w, core.Tier2, func(id int, s query.Sample) { sum1 += s.Value ^ int64(s.TS) })
	n2, err := query.LoadValueTraces(w2, core.Tier2, func(id int, s query.Sample) { sum2 += s.Value ^ int64(s.TS) })
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 || sum1 != sum2 {
		t.Fatalf("value traces differ: n %d/%d sum %d/%d", n1, n2, sum1, sum2)
	}

	// Slices are identical in size.
	crit := query.Instance{Node: w.LastNode, Pos: 0, Ord: w.Nodes[w.LastNode].Execs - 1}
	s1, err := query.BackwardSlice(w, core.Tier2, crit, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := query.BackwardSlice(w2, core.Tier2, crit, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1.Instances) != len(s2.Instances) || s1.Edges != s2.Edges {
		t.Fatalf("slices differ: %d/%d instances, %d/%d edges",
			len(s1.Instances), len(s2.Instances), s1.Edges, s2.Edges)
	}
}

func TestLoadWithoutTier1(t *testing.T) {
	w := buildFrozen(t, "twolf")
	var buf bytes.Buffer
	if err := Save(&buf, w); err != nil {
		t.Fatal(err)
	}
	w2, err := Load(bytes.NewReader(buf.Bytes()), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Tier-2 queries work; tier-1 arrays stay nil.
	if n := mustCF(w2, core.Tier2, true, nil); n != w.Raw.StmtExecs {
		t.Fatalf("CF extracted %d stmts, want %d", n, w.Raw.StmtExecs)
	}
	if w2.Nodes[0].TS != nil {
		t.Fatal("a loaded WET holds tier-1 timestamps")
	}
}

func TestSaveUnfrozenFails(t *testing.T) {
	wl, _ := workload.ByName("li")
	prog, in := wl.Build(1)
	st, err := interp.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := core.Build(st, interp.Options{Inputs: in})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, w); err == nil {
		t.Fatal("Save accepted an unfrozen WET")
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8}), LoadOptions{}); err == nil {
		t.Fatal("Load accepted garbage")
	}
}

func TestRoundTripAllWorkloads(t *testing.T) {
	for _, wl := range workload.All() {
		w := buildFrozen(t, wl.Name)
		var buf bytes.Buffer
		if err := Save(&buf, w); err != nil {
			t.Fatalf("%s: Save: %v", wl.Name, err)
		}
		w2, err := Load(bytes.NewReader(buf.Bytes()), LoadOptions{})
		if err != nil {
			t.Fatalf("%s: Load: %v", wl.Name, err)
		}
		if n := mustCF(w2, core.Tier2, true, nil); n != w.Raw.StmtExecs {
			t.Fatalf("%s: loaded CF trace %d stmts, want %d", wl.Name, n, w.Raw.StmtExecs)
		}
	}
}

// TestLoadTruncated feeds every prefix of a valid file to Load: each must
// fail with an error, never panic or succeed with corrupt data.
func TestLoadTruncated(t *testing.T) {
	w := buildFrozen(t, "li")
	var buf bytes.Buffer
	if err := Save(&buf, w); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	step := len(data)/61 + 1
	for n := 0; n < len(data); n += step {
		if _, err := Load(bytes.NewReader(data[:n]), LoadOptions{}); err == nil {
			t.Fatalf("Load succeeded on %d of %d bytes", n, len(data))
		}
	}
}

// TestLoadBitflips flips bytes across the file; Load must either error or
// produce a WET (structural checks catch most corruption) without panics.
func TestLoadBitflips(t *testing.T) {
	w := buildFrozen(t, "twolf")
	var buf bytes.Buffer
	if err := Save(&buf, w); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	step := len(orig)/97 + 1
	for off := 8; off < len(orig); off += step {
		data := append([]byte(nil), orig...)
		data[off] ^= 0x41
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Load panicked with byte %d flipped: %v", off, r)
				}
			}()
			_, _ = Load(bytes.NewReader(data), LoadOptions{})
		}()
	}
}

func TestLoadedWETValidates(t *testing.T) {
	w := buildFrozen(t, "gcc")
	var buf bytes.Buffer
	if err := Save(&buf, w); err != nil {
		t.Fatal(err)
	}
	w2, err := Load(bytes.NewReader(buf.Bytes()), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Validate(); err != nil {
		t.Fatalf("loaded WET fails validation: %v", err)
	}
}
