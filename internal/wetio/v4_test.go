package wetio

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"wet/internal/core"
	"wet/internal/interp"
	"wet/internal/query"
	"wet/internal/workload"
)

// buildStreamed builds an epoch-segmented frozen WET of one workload. The
// epoch size is small so even scale-1 runs span several epochs.
func buildStreamed(tb testing.TB, name string, epochTS uint32) *core.WET {
	tb.Helper()
	wl, err := workload.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	prog, in := wl.Build(1)
	st, err := interp.Analyze(prog)
	if err != nil {
		tb.Fatal(err)
	}
	w, _, _, err := core.BuildStreaming(st, interp.Options{Inputs: in}, core.FreezeOptions{EpochTS: epochTS})
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

func savedStreamedWET(tb testing.TB, name string) []byte {
	tb.Helper()
	w := buildStreamed(tb, name, 1<<8)
	var buf bytes.Buffer
	if err := Save(&buf, w); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestV4VersionDispatch: segmented WETs write version 4, single-epoch WETs
// keep writing version 3 byte-for-byte.
func TestV4VersionDispatch(t *testing.T) {
	data := savedStreamedWET(t, "li")
	if v := order.Uint32(data[4:]); v != 4 {
		t.Fatalf("segmented WET saved as version %d, want 4", v)
	}
	w := buildFrozen(t, "li")
	var buf bytes.Buffer
	if err := Save(&buf, w); err != nil {
		t.Fatal(err)
	}
	if v := order.Uint32(buf.Bytes()[4:]); v != 3 {
		t.Fatalf("single-epoch WET saved as version %d, want 3", v)
	}
}

// TestV4RoundTrip saves and strictly reloads a segmented WET, checking the
// structure validates and the loaded trace answers queries identically.
func TestV4RoundTrip(t *testing.T) {
	w := buildStreamed(t, "parser", 1<<8)
	if w.Epochs < 2 {
		t.Fatalf("want a multi-epoch WET, got %d epochs", w.Epochs)
	}
	var buf bytes.Buffer
	if err := Save(&buf, w); err != nil {
		t.Fatal(err)
	}
	w2, rep, err := LoadWithReport(bytes.NewReader(buf.Bytes()), LoadOptions{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if rep.Version != 4 || !rep.Clean() {
		t.Fatalf("load report: %s", rep)
	}
	if w2.EpochTS != w.EpochTS || w2.Epochs != w.Epochs || !w2.Segmented() {
		t.Fatalf("epoch structure lost: %d/%d vs %d/%d", w2.EpochTS, w2.Epochs, w.EpochTS, w.Epochs)
	}
	if len(w2.Nodes) != len(w.Nodes) || len(w2.Edges) != len(w.Edges) || w2.Time != w.Time || w2.Raw != w.Raw {
		t.Fatal("shape mismatch after roundtrip")
	}
	if w2.Report().T2Total() != w.Report().T2Total() {
		t.Fatalf("report mismatch: %d vs %d", w2.Report().T2Total(), w.Report().T2Total())
	}
	if err := w2.Validate(); err != nil {
		t.Fatalf("Validate(loaded): %v", err)
	}

	var a, b []int
	query.ExtractCF(w, core.Tier2, true, func(id int) { a = append(a, id) })
	query.ExtractCF(w2, core.Tier2, true, func(id int) { b = append(b, id) })
	if len(a) != len(b) {
		t.Fatalf("CF trace length %d vs %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("CF trace differs at %d", i)
		}
	}
	var sum1, sum2 int64
	n1, err := query.LoadValueTraces(w, core.Tier2, func(id int, s query.Sample) { sum1 += s.Value ^ int64(s.TS) })
	if err != nil {
		t.Fatal(err)
	}
	n2, err := query.LoadValueTraces(w2, core.Tier2, func(id int, s query.Sample) { sum2 += s.Value ^ int64(s.TS) })
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 || sum1 != sum2 {
		t.Fatalf("value traces differ: n %d/%d sum %d/%d", n1, n2, sum1, sum2)
	}
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
		t.Fatalf("slices differ: %d/%d instances", len(s1.Instances), len(s2.Instances))
	}
}

// TestV4ByteStability: saving the same segmented WET twice produces
// identical bytes, and a load/save cycle reproduces the file exactly.
func TestV4ByteStability(t *testing.T) {
	w := buildStreamed(t, "li", 1<<8)
	var b1, b2 bytes.Buffer
	if err := Save(&b1, w); err != nil {
		t.Fatal(err)
	}
	if err := Save(&b2, w); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("two saves of the same WET differ")
	}
	w2, err := Load(bytes.NewReader(b1.Bytes()), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var b3 bytes.Buffer
	if err := Save(&b3, w2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b3.Bytes()) {
		t.Fatal("load/save cycle changed the file bytes")
	}
}

// TestV4VerifySemantic climbs the full verification ladder (CRC walk,
// structural validation, semantic certification) over a segmented file.
func TestV4VerifySemantic(t *testing.T) {
	data := savedStreamedWET(t, "mcf")
	res, err := VerifySemantic(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("segmented file failed verification: bytes ok=%v structure=%v semantic=%+v",
			res.Bytes.OK(), res.StructureErr, res.Semantic)
	}
	if res.Bytes.Version != 4 {
		t.Fatalf("verify saw version %d, want 4", res.Bytes.Version)
	}
	if res.Semantic.Nodes == 0 || res.Semantic.Labels == 0 {
		t.Fatalf("trivial semantic coverage: %+v", res.Semantic)
	}
}

// TestV4CorruptStrict flips sampled bytes and checks the strict loader
// rejects every damaged v4 file with a *FormatError, never a panic.
func TestV4CorruptStrict(t *testing.T) {
	data := savedStreamedWET(t, "li")
	step := len(data)/701 + 1
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("strict Load panicked on corrupt v4: %v", r)
		}
	}()
	for off := 0; off < len(data); off += step {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x20
		_, err := Load(bytes.NewReader(mut), LoadOptions{})
		if err == nil {
			t.Fatalf("strict Load accepted v4 file with byte %d flipped", off)
		}
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("flip at byte %d: error is not *FormatError: %v", off, err)
		}
	}
}

// TestV4SalvageEdgeDrop damages one edge section of a v4 file: salvage
// keeps the nodes, drops the edge, and cascades over per-segment share
// references so no surviving segment points at a lost owner.
func TestV4SalvageEdgeDrop(t *testing.T) {
	data := savedStreamedWET(t, "vortex")
	secs, _, _, err := scanSections(data, true)
	if err != nil {
		t.Fatal(err)
	}
	intact, _, err := LoadWithReport(bytes.NewReader(data), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	edgeIdx, tested := 0, 0
	for _, s := range secs {
		if s.tag != secEdge {
			continue
		}
		idx := edgeIdx
		edgeIdx++
		if tested >= 4 || len(s.payload) == 0 {
			continue
		}
		tested++
		mut := append([]byte(nil), data...)
		mut[s.offset+5] ^= 0xFF
		w, rep, err := LoadWithReport(bytes.NewReader(mut), LoadOptions{Salvage: true})
		if err != nil {
			t.Fatalf("salvage of damaged edge %d failed: %v", idx, err)
		}
		if len(w.Nodes) != len(intact.Nodes) {
			t.Fatalf("damaged edge %d: salvage dropped nodes", idx)
		}
		if rep.EdgesDropped < 1 {
			t.Fatalf("damaged edge %d: report claims no edges dropped", idx)
		}
		for ei, e := range w.Edges {
			for si, sg := range e.Segs {
				if sg.SharedWith < 0 {
					continue
				}
				if sg.SharedWith >= len(w.Edges) {
					t.Fatalf("edge %d segment %d dangles after salvage", ei, si)
				}
				rs := w.Edges[sg.SharedWith].Segs[sg.SharedSeg]
				if rs.DstS == nil || rs.Epoch != sg.Epoch || rs.N != sg.N {
					t.Fatalf("edge %d segment %d shares with a non-owner after salvage", ei, si)
				}
			}
		}
		query.ExtractCF(w, core.Tier2, true, nil)
	}
	if tested == 0 {
		t.Fatal("no edge sections found")
	}
}

// TestV4SalvageStomps drives random byte stomps through the v4 salvage
// loader: every mutant loads consistently or errors as *FormatError.
func TestV4SalvageStomps(t *testing.T) {
	data := savedStreamedWET(t, "li")
	rng := rand.New(rand.NewSource(0x4E6F1A))
	for trial := 0; trial < 150; trial++ {
		mut := append([]byte(nil), data...)
		start := rng.Intn(len(mut))
		length := 1 + rng.Intn(64)
		for i := start; i < start+length && i < len(mut); i++ {
			mut[i] = byte(rng.Int())
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("salvage panicked on stomp trial %d: %v", trial, r)
				}
			}()
			w, rep, err := LoadWithReport(bytes.NewReader(mut), LoadOptions{Salvage: true})
			if err != nil {
				var fe *FormatError
				if !errors.As(err, &fe) {
					t.Fatalf("trial %d: salvage error is not *FormatError: %v", trial, err)
				}
				return
			}
			if len(w.Nodes) == 0 {
				t.Fatalf("trial %d: salvage returned empty WET without error", trial)
			}
			_ = rep
			query.ExtractCF(w, core.Tier2, true, nil)
		}()
	}
}

// TestV4TruncationPrefixes feeds sampled prefixes of a v4 file to the
// strict loader: all must error cleanly.
func TestV4TruncationPrefixes(t *testing.T) {
	data := savedStreamedWET(t, "li")
	step := len(data)/512 + 1
	for n := 0; n < len(data); n += step {
		if _, err := Load(bytes.NewReader(data[:n]), LoadOptions{}); err == nil {
			t.Fatalf("strict Load accepted %d of %d bytes", n, len(data))
		}
	}
}

// TestV4VerifyStreams exercises the stream-walk certification on every
// segment stream of a v4 file.
func TestV4VerifyStreams(t *testing.T) {
	data := savedStreamedWET(t, "li")
	if _, err := Load(bytes.NewReader(data), LoadOptions{VerifyStreams: true}); err != nil {
		t.Fatalf("VerifyStreams on intact v4: %v", err)
	}
}
