package racecheck

import (
	"bytes"
	"reflect"
	"testing"

	"wet/internal/core"
	"wet/internal/interp"
	"wet/internal/stream"
	"wet/internal/wetio"
	"wet/internal/workload"
)

func buildConc(tb testing.TB, name string, seed uint64, fopts core.FreezeOptions) *core.WET {
	tb.Helper()
	wl, err := workload.ConcByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	prog, in := wl.Build(1)
	st, err := interp.Analyze(prog)
	if err != nil {
		tb.Fatal(err)
	}
	w, _, err := core.Build(st, interp.Options{Inputs: in, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := w.FreezeErr(fopts); err != nil {
		tb.Fatal(err)
	}
	return w
}

// checkScanSmaller pins what the checker's one-pass walk buys: the tier-2
// bytes it scans are strictly fewer than the raw concurrency records (u32s:
// one per owned timestamp, four per sync event, five per shared access).
func checkScanSmaller(t *testing.T, name string, w *core.WET, rep *Report) {
	t.Helper()
	scanned := (rep.CompressedBits + 7) / 8
	raw := 4 * (uint64(w.Time) + 4*uint64(rep.SyncEvents) + 5*uint64(rep.SharedAccesses))
	if scanned == 0 || scanned >= raw {
		t.Fatalf("%s: compressed scan (%d B) not smaller than raw events (%d B)", name, scanned, raw)
	}
}

// TestRacyVariantsReport pins the seeded races: every racy variant reports
// definite races, the read-modify-write seeds show up as both RC001 and
// RC002, and the mcf handshake seeds the RC003 lockset candidate.
func TestRacyVariantsReport(t *testing.T) {
	for _, name := range []string{"li-conc-racy", "gzip-conc-racy", "mcf-conc-racy"} {
		w := buildConc(t, name, 0, core.FreezeOptions{})
		if err := w.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep, err := Check(w, core.Tier2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.Concurrent || rep.Threads != 3 {
			t.Fatalf("%s: concurrent=%v threads=%d, want 3-thread concurrent report", name, rep.Concurrent, rep.Threads)
		}
		if !rep.Racy() {
			t.Fatalf("%s: seeded racy workload reported no definite race", name)
		}
		checkScanSmaller(t, name, w, rep)
		if rep.Count(RuleWriteWrite) == 0 {
			t.Fatalf("%s: unsynchronized read-modify-write seeded no %s finding; races: %v", name, RuleWriteWrite, rep.Races)
		}
		if rep.Count(RuleReadWrite) == 0 {
			t.Fatalf("%s: unsynchronized read-modify-write seeded no %s finding; races: %v", name, RuleReadWrite, rep.Races)
		}
		if name == "mcf-conc-racy" && rep.Count(RuleLockset) == 0 {
			t.Fatalf("mcf handshake seeded no %s candidate; races: %v", RuleLockset, rep.Races)
		}
		for _, rc := range rep.Races {
			if rc.First.TS == 0 || rc.First.TS >= rc.Second.TS {
				t.Fatalf("%s: bad witness pair %v", name, rc)
			}
			if rc.First.Thread == rc.Second.Thread {
				t.Fatalf("%s: race within one thread: %v", name, rc)
			}
			if _, ok := RuleDoc[rc.Rule]; !ok {
				t.Fatalf("%s: unknown rule %q", name, rc.Rule)
			}
		}
	}
}

// TestCleanVariantsSilent pins zero false positives: the lock-disciplined
// flavours report nothing, not even lockset candidates.
func TestCleanVariantsSilent(t *testing.T) {
	for _, name := range []string{"li-conc-clean", "gzip-conc-clean", "mcf-conc-clean"} {
		w := buildConc(t, name, 0, core.FreezeOptions{})
		if err := w.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep, err := Check(w, core.Tier2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.Concurrent || rep.SharedAccesses == 0 || rep.SyncEvents == 0 {
			t.Fatalf("%s: expected a concurrent trace with sync and shared events, got %+v", name, rep)
		}
		if len(rep.Races) != 0 {
			t.Fatalf("%s: race-free workload reported: %v", name, rep.Races)
		}
		checkScanSmaller(t, name, w, rep)
	}
}

// TestCrossTierEquality pins that the race report is a property of the
// trace, not of the representation: tier 1 (raw slices), tier 2 (compressed
// cursors), and a save/load roundtrip all yield identical findings.
func TestCrossTierEquality(t *testing.T) {
	for _, wl := range workload.ConcAll() {
		w := buildConc(t, wl.Name, 7, core.FreezeOptions{})
		r1, err := Check(w, core.Tier1)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Check(w, core.Tier2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r1.Races, r2.Races) {
			t.Fatalf("%s: tier-1 and tier-2 reports differ:\n%v\n%v", wl.Name, r1.Races, r2.Races)
		}
		var buf bytes.Buffer
		if err := wetio.Save(&buf, w); err != nil {
			t.Fatal(err)
		}
		lw, err := wetio.Load(bytes.NewReader(buf.Bytes()), wetio.LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		r3, err := Check(lw, core.Tier2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r1.Races, r3.Races) {
			t.Fatalf("%s: loaded-trace report differs:\n%v\n%v", wl.Name, r1.Races, r3.Races)
		}
		if lw.Raw.SyncOps == 0 || lw.Raw.SyncOps != w.Raw.SyncOps || lw.Raw.SharedAcc != w.Raw.SharedAcc {
			t.Fatalf("%s: concurrency counters lost in roundtrip: %+v vs %+v", wl.Name, lw.Raw, w.Raw)
		}
	}
}

// TestTier2CursorOnly pins the access discipline: after DropTier1 the raw
// slices are gone, so a successful tier-2 check proves the walk runs on
// detached cursors alone; and the merge-walk is monotone, so it must not
// issue random-access seeks.
func TestTier2CursorOnly(t *testing.T) {
	w := buildConc(t, "mcf-conc-racy", 0, core.FreezeOptions{DropTier1: true})
	ref := buildConc(t, "mcf-conc-racy", 0, core.FreezeOptions{})
	want, err := Check(ref, core.Tier1)
	if err != nil {
		t.Fatal(err)
	}
	before := stream.ReadSeekStats()
	got, err := Check(w, core.Tier2)
	if err != nil {
		t.Fatal(err)
	}
	d := stream.ReadSeekStats().Sub(before)
	if d.Seeks != 0 {
		t.Fatalf("race check issued %d cursor seeks; the merge-walk must be a monotone forward pass", d.Seeks)
	}
	if got.CompressedBits == 0 {
		t.Fatal("frozen concurrency streams report zero compressed bits")
	}
	if !reflect.DeepEqual(want.Races, got.Races) {
		t.Fatalf("dropped-tier-1 report differs from raw report:\n%v\n%v", want.Races, got.Races)
	}
}

// TestSchedulerDeterminism pins the seeded scheduler: the same seed replays
// the same interleaving bit-for-bit (saved bytes identical), and the race
// report is identical run to run.
func TestSchedulerDeterminism(t *testing.T) {
	a := buildConc(t, "li-conc-racy", 3, core.FreezeOptions{})
	b := buildConc(t, "li-conc-racy", 3, core.FreezeOptions{})
	var ab, bb bytes.Buffer
	if err := wetio.Save(&ab, a); err != nil {
		t.Fatal(err)
	}
	if err := wetio.Save(&bb, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
		t.Fatal("two runs with the same seed serialized differently")
	}
	ra, err := Check(a, core.Tier2)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Check(b, core.Tier2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ra.Races, rb.Races) {
		t.Fatal("two runs with the same seed reported different races")
	}
}

// TestSingleThreadedNoConc pins the gating: a sequential workload grows no
// concurrency streams and the checker degrades to an empty report.
func TestSingleThreadedNoConc(t *testing.T) {
	wl, err := workload.ByName("li")
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
	if w.Conc != nil {
		t.Fatal("single-threaded build grew concurrency streams")
	}
	if _, err := w.FreezeErr(core.FreezeOptions{}); err != nil {
		t.Fatal(err)
	}
	rep, err := Check(w, core.Tier2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Concurrent || len(rep.Races) != 0 {
		t.Fatalf("single-threaded report not empty: %+v", rep)
	}
}

// TestStreamingBuildChecked pins the streaming pipeline and the value-
// grouping determinism invariant on concurrent traces: an epoch-segmented
// checked build succeeds and reports the same races as the plain build.
func TestStreamingBuildChecked(t *testing.T) {
	wl, err := workload.ConcByName("gzip-conc-racy")
	if err != nil {
		t.Fatal(err)
	}
	prog, in := wl.Build(1)
	st, err := interp.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	w, _, _, err := core.BuildStreamingChecked(st, interp.Options{Inputs: in, Seed: 0},
		core.FreezeOptions{EpochTS: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	got, err := Check(w, core.Tier2)
	if err != nil {
		t.Fatal(err)
	}
	ref := buildConc(t, "gzip-conc-racy", 0, core.FreezeOptions{})
	want, err := Check(ref, core.Tier2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Races, got.Races) {
		t.Fatalf("streaming build reports differ from plain build:\n%v\n%v", want.Races, got.Races)
	}
}
