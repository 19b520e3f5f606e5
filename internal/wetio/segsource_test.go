package wetio

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"wet/internal/core"
)

// cfDigest fingerprints the forward control-flow trace.
func segCFDigest(tb testing.TB, w *core.WET) uint64 {
	tb.Helper()
	var h uint64 = 1469598103934665603
	mustCF(w, core.Tier2, true, func(id int) {
		h = (h ^ uint64(id)) * 1099511628211
	})
	return h
}

// TestSegmentSourceV4 opens a v4 container with a segment index: nothing
// materializes at load, queries decode only what they touch, EvictAll
// reclaims it, and re-decoded queries agree with the eager load.
func TestSegmentSourceV4(t *testing.T) {
	data := savedStreamedWET(t, "parser")

	eager, err := Load(bytes.NewReader(data), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := segCFDigest(t, eager)

	ss := NewSegmentSource()
	w, err := Load(bytes.NewReader(data), LoadOptions{Segments: ss})
	if err != nil {
		t.Fatal(err)
	}
	if ss.Len() == 0 {
		t.Fatal("no segments indexed")
	}
	if got := ss.ResidentCount(); got != 0 {
		t.Fatalf("%d segments resident after load, want 0", got)
	}
	for _, sg := range ss.Segments() {
		if sg.Owner == "" || sg.Epoch < 0 {
			t.Fatalf("v4 segment registered without identity: %+v", sg)
		}
	}

	if got := segCFDigest(t, w); got != want {
		t.Fatalf("segment-indexed digest %#x != eager %#x", got, want)
	}
	if ss.ResidentCount() == 0 || ss.ResidentBytes() == 0 {
		t.Fatal("query materialized no segments")
	}

	released := ss.EvictAll()
	if released == 0 || ss.ResidentCount() != 0 || ss.ResidentBytes() != 0 {
		t.Fatalf("EvictAll released %d bytes, %d still resident", released, ss.ResidentCount())
	}
	if got := segCFDigest(t, w); got != want {
		t.Fatalf("post-evict digest %#x != eager %#x", got, want)
	}
}

// TestSegmentSourceV3 checks the whole-run path, v3 and the unframed
// v2 fixture alike: streams index with an owner and epoch -1, nothing decodes
// at load, and queries survive evict/reload.
func TestSegmentSourceV3(t *testing.T) {
	var v3 bytes.Buffer
	if err := Save(&v3, buildFrozen(t, "li")); err != nil {
		t.Fatal(err)
	}
	v2, err := os.ReadFile(filepath.Join("testdata", "li_v2.wet"))
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"v3": v3.Bytes(), "v2": v2} {
		eager, err := Load(bytes.NewReader(data), LoadOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := segCFDigest(t, eager)

		ss := NewSegmentSource()
		w, err := Load(bytes.NewReader(data), LoadOptions{Segments: ss})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ss.Len() == 0 || ss.ResidentCount() != 0 {
			t.Fatalf("%s: %d segments indexed, %d resident after load", name, ss.Len(), ss.ResidentCount())
		}
		for _, sg := range ss.Segments() {
			if sg.Owner == "" || sg.Epoch != -1 {
				t.Fatalf("%s whole-run stream registered as %+v", name, sg)
			}
		}
		if got := segCFDigest(t, w); got != want {
			t.Fatalf("%s: digest %#x != eager %#x", name, got, want)
		}
		if ss.EvictAll() == 0 || ss.ResidentCount() != 0 {
			t.Fatalf("%s: EvictAll left %d segments resident", name, ss.ResidentCount())
		}
		if got := segCFDigest(t, w); got != want {
			t.Fatalf("%s: post-evict digest %#x != eager %#x", name, got, want)
		}
	}
}

// TestSegmentSourceResave pins that a segment-indexed container saves
// byte-identically to its input without materializing anything.
func TestSegmentSourceResave(t *testing.T) {
	data := savedStreamedWET(t, "li")
	ss := NewSegmentSource()
	w, err := Load(bytes.NewReader(data), LoadOptions{Segments: ss})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := Save(&out, w); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("resave of segment-indexed container differs from input")
	}
	if got := ss.ResidentCount(); got != 0 {
		t.Fatalf("resave materialized %d segments", got)
	}
}
