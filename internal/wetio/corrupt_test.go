package wetio

// Corruption-injection harness for format v3: a saved workload WET is
// replayed through exhaustive single-bit flips, truncation at (and around)
// every section boundary, and seeded random byte stomps. Every mutation
// must yield either a *FormatError or a consistent salvage result — never
// a panic, a hang, or a silently wrong load. All test names match
// `-run Corrupt`.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"wet/internal/core"
	"wet/internal/interp"
	"wet/internal/query"
	"wet/internal/stream"
	"wet/internal/workload"
)

// buildFrozenTB is buildFrozen for any testing.TB (fuzz seeding included).
func buildFrozenTB(tb testing.TB, name string) *core.WET {
	tb.Helper()
	return buildFrozenWith(tb, name, core.FreezeOptions{})
}

// buildFrozenWith builds one workload at scale 1, single-epoch, and freezes
// it under opts.
func buildFrozenWith(tb testing.TB, name string, opts core.FreezeOptions) *core.WET {
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
	w, _, err := core.Build(st, interp.Options{Inputs: in})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := w.FreezeErr(opts); err != nil {
		tb.Fatal(err)
	}
	return w
}

// savedWET builds and saves one workload, returning the v3 bytes.
func savedWET(t testing.TB, name string) []byte {
	t.Helper()
	w := buildFrozenTB(t, name)
	var buf bytes.Buffer
	if err := Save(&buf, w); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sectionBoundaries scans a valid v3 file and returns the start offset of
// every section frame plus the end-of-file offset.
func sectionBoundaries(t testing.TB, data []byte) []int64 {
	t.Helper()
	secs, tail, sawEnd, err := scanSections(data, true)
	if err != nil || tail != 0 || !sawEnd {
		t.Fatalf("scan of valid file: err=%v tail=%d sawEnd=%v", err, tail, sawEnd)
	}
	offs := make([]int64, 0, len(secs)+1)
	for _, s := range secs {
		offs = append(offs, s.offset)
	}
	return append(offs, int64(len(data)))
}

// loadNoPanic runs Load under a recover trap, failing the test on panic.
func loadNoPanic(t *testing.T, data []byte, opts LoadOptions, what string) (w *core.WET, rep *SalvageReport, err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Load panicked (%s): %v", what, r)
		}
	}()
	w, rep, err = LoadWithReport(bytes.NewReader(data), opts)
	return
}

// checkSalvaged asserts a salvage-loaded WET is internally consistent: the
// structural invariants hold and tier-2 queries run without panicking.
func checkSalvaged(t *testing.T, w *core.WET, rep *SalvageReport, what string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("salvaged WET panicked under queries (%s): %v\nreport: %s", what, r, rep)
		}
	}()
	if len(w.Nodes) == 0 {
		t.Fatalf("salvage returned WET with zero nodes (%s)", what)
	}
	if w.FirstNode < 0 || w.FirstNode >= len(w.Nodes) || w.LastNode < 0 || w.LastNode >= len(w.Nodes) {
		t.Fatalf("salvage returned out-of-range first/last node (%s)", what)
	}
	for _, n := range w.Nodes {
		for _, v := range n.CFNext {
			if v < 0 || v >= len(w.Nodes) {
				t.Fatalf("salvaged CFNext entry %d out of range (%s)", v, what)
			}
		}
		for _, v := range n.CFPrev {
			if v < 0 || v >= len(w.Nodes) {
				t.Fatalf("salvaged CFPrev entry %d out of range (%s)", v, what)
			}
		}
	}
	for i, e := range w.Edges {
		if e.SrcNode >= len(w.Nodes) || e.DstNode >= len(w.Nodes) {
			t.Fatalf("salvaged edge %d references dropped node (%s)", i, what)
		}
		if e.SharedWith >= len(w.Edges) {
			t.Fatalf("salvaged edge %d has dangling share reference (%s)", i, what)
		}
		if e.SharedWith >= 0 {
			own := w.Edges[e.SharedWith]
			if own.SharedWith >= 0 || own.Inferable {
				t.Fatalf("salvaged edge %d shares with a non-owner (%s)", i, what)
			}
		}
	}
	// Queries must degrade gracefully, not crash: walk the control flow and
	// pull one backward slice off the last node.
	mustCF(w, core.Tier2, true, nil)
	last := w.Nodes[w.LastNode]
	if last.Execs > 0 && len(last.Stmts) > 0 {
		crit := query.Instance{Node: w.LastNode, Pos: 0, Ord: last.Execs - 1}
		_, _ = query.BackwardSlice(w, core.Tier2, crit, 0)
	}
}

// TestCorruptBitflipsExhaustive flips every single bit of a saved workload
// WET and asserts the strict loader reports each mutation as *FormatError.
// CRC32-C detects all single-bit errors, and the loader verifies every
// checksum before parsing, so this sweep is exhaustive yet cheap. The byte
// range is split over GOMAXPROCS workers, each flipping bits in its own copy
// and stopping at its first failure; the lowest failing (byte, bit) is
// reported.
func TestCorruptBitflipsExhaustive(t *testing.T) {
	data := savedWET(t, "vortex")
	t.Logf("sweeping %d bits over %d bytes", len(data)*8, len(data))
	workers := runtime.GOMAXPROCS(0)
	fails := make([]string, workers)
	var wg sync.WaitGroup
	for k := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mut := bytes.Clone(data)
			defer func() {
				if r := recover(); r != nil {
					fails[k] = fmt.Sprintf("strict Load panicked during bit-flip sweep: %v", r)
				}
			}()
			for off := len(data) * k / workers; off < len(data)*(k+1)/workers; off++ {
				for bit := 0; bit < 8; bit++ {
					mut[off] ^= 1 << bit
					_, err := Load(bytes.NewReader(mut), LoadOptions{})
					mut[off] ^= 1 << bit
					var fe *FormatError
					switch {
					case err == nil:
						fails[k] = fmt.Sprintf("strict Load accepted file with bit %d of byte %d flipped", bit, off)
						return
					case !errors.As(err, &fe):
						fails[k] = fmt.Sprintf("flip at byte %d bit %d: error is not *FormatError: %v", off, bit, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	// Workers own ascending byte ranges, so the first failure is the lowest.
	for _, f := range fails {
		if f != "" {
			t.Fatal(f)
		}
	}
}

// TestCorruptBitflipsSalvage samples bit flips across the file and loads
// each mutant in salvage mode: the result must be an error or a consistent
// salvaged WET, never a panic.
func TestCorruptBitflipsSalvage(t *testing.T) {
	data := savedWET(t, "vortex")
	step := len(data)/701 + 1
	opts := LoadOptions{Salvage: true}
	for off := 0; off < len(data); off += step {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x10
		w, rep, err := loadNoPanic(t, mut, opts, "bit flip")
		if err != nil {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("flip at byte %d: salvage error is not *FormatError: %v", off, err)
			}
			continue
		}
		checkSalvaged(t, w, rep, "bit flip")
	}
}

// TestCorruptTruncationBoundaries truncates the file at every section
// boundary and one byte to either side: strict load must error, salvage
// must error or produce a consistent WET flagged Truncated.
func TestCorruptTruncationBoundaries(t *testing.T) {
	data := savedWET(t, "vortex")
	full := int64(len(data))
	for _, b := range sectionBoundaries(t, data) {
		for _, cut := range []int64{b - 1, b, b + 1} {
			if cut < 0 || cut >= full {
				continue
			}
			mut := data[:cut]
			if _, _, err := loadNoPanic(t, mut, LoadOptions{}, "truncation"); err == nil {
				t.Fatalf("strict Load accepted file truncated to %d of %d bytes", cut, full)
			}
			w, rep, err := loadNoPanic(t, mut, LoadOptions{Salvage: true}, "truncation")
			if err != nil {
				continue
			}
			if !rep.Truncated && rep.Clean() {
				t.Fatalf("salvage of %d/%d bytes reported a clean complete file", cut, full)
			}
			checkSalvaged(t, w, rep, "truncation")
		}
	}
}

// TestCorruptTruncationEveryPrefix feeds every prefix (sampled at byte
// granularity for speed) to the strict loader: all must error cleanly.
func TestCorruptTruncationEveryPrefix(t *testing.T) {
	data := savedWET(t, "vortex")
	step := 1
	if testing.Short() {
		step = len(data)/512 + 1
	}
	for n := 0; n < len(data); n += step {
		if _, _, err := loadNoPanic(t, data[:n], LoadOptions{}, "prefix"); err == nil {
			t.Fatalf("strict Load accepted %d of %d bytes", n, len(data))
		}
	}
}

// TestCorruptByteStomps overwrites random runs of bytes with random data
// (fixed seed) and checks both load modes stay panic-free and consistent.
func TestCorruptByteStomps(t *testing.T) {
	data := savedWET(t, "vortex")
	rng := rand.New(rand.NewSource(0x5EC7104))
	for trial := 0; trial < 300; trial++ {
		mut := append([]byte(nil), data...)
		runs := 1 + rng.Intn(4)
		for r := 0; r < runs; r++ {
			start := rng.Intn(len(mut))
			length := 1 + rng.Intn(64)
			for i := start; i < start+length && i < len(mut); i++ {
				mut[i] = byte(rng.Int())
			}
		}
		if _, _, err := loadNoPanic(t, mut, LoadOptions{}, "stomp strict"); err == nil {
			// A stomp may rewrite bytes to their original values; verify
			// before complaining.
			if !bytes.Equal(mut, data) {
				t.Fatalf("strict Load accepted stomped file (trial %d)", trial)
			}
			continue
		}
		w, rep, err := loadNoPanic(t, mut, LoadOptions{Salvage: true}, "stomp salvage")
		if err != nil {
			continue
		}
		checkSalvaged(t, w, rep, "stomp salvage")
	}
}

// TestCorruptSalvageNodePrefix damages one node section and asserts the
// salvage loader keeps exactly the nodes before it, drops the edges that
// referenced lost nodes, and reports the losses.
func TestCorruptSalvageNodePrefix(t *testing.T) {
	data := savedWET(t, "vortex")
	secs, _, _, err := scanSections(data, true)
	if err != nil {
		t.Fatal(err)
	}
	intact, _, err := LoadWithReport(bytes.NewReader(data), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	nodeIdx := 0
	for _, s := range secs {
		if s.tag != secNode {
			continue
		}
		idx := nodeIdx
		nodeIdx++
		if idx != 1 && idx != len(intact.Nodes)/2 {
			continue
		}
		mut := append([]byte(nil), data...)
		mut[s.offset+7] ^= 0xFF // a payload byte of this node section
		w, rep, err := loadNoPanic(t, mut, LoadOptions{Salvage: true}, "node prefix")
		if err != nil {
			t.Fatalf("salvage of damaged node %d failed: %v", idx, err)
		}
		if len(w.Nodes) != idx {
			t.Fatalf("damaged node %d: salvage kept %d nodes, want prefix of %d", idx, len(w.Nodes), idx)
		}
		if rep.NodesDropped != len(intact.Nodes)-idx {
			t.Fatalf("damaged node %d: report says %d nodes dropped, want %d",
				idx, rep.NodesDropped, len(intact.Nodes)-idx)
		}
		// The surviving prefix is bit-identical to the intact load.
		for i, n := range w.Nodes {
			if n.Fn != intact.Nodes[i].Fn || n.PathID != intact.Nodes[i].PathID || n.Execs != intact.Nodes[i].Execs {
				t.Fatalf("damaged node %d: surviving node %d differs from intact load", idx, i)
			}
		}
		checkSalvaged(t, w, rep, "node prefix")
	}
	if nodeIdx == 0 {
		t.Fatal("no node sections found")
	}
}

// TestCorruptSalvageEdgeDrop damages a single edge section: salvage must
// keep all nodes and all other edges except those sharing labels with the
// lost one.
func TestCorruptSalvageEdgeDrop(t *testing.T) {
	data := savedWET(t, "vortex")
	secs, _, _, err := scanSections(data, true)
	if err != nil {
		t.Fatal(err)
	}
	intact, _, err := LoadWithReport(bytes.NewReader(data), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Sharers of each edge, to predict the cascade.
	sharers := map[int]int{}
	for _, e := range intact.Edges {
		if e.SharedWith >= 0 {
			sharers[e.SharedWith]++
		}
	}
	edgeIdx := 0
	tested := 0
	for _, s := range secs {
		if s.tag != secEdge {
			continue
		}
		idx := edgeIdx
		edgeIdx++
		if tested >= 3 || len(s.payload) == 0 {
			continue
		}
		tested++
		mut := append([]byte(nil), data...)
		mut[s.offset+5] ^= 0xFF
		w, rep, err := loadNoPanic(t, mut, LoadOptions{Salvage: true}, "edge drop")
		if err != nil {
			t.Fatalf("salvage of damaged edge %d failed: %v", idx, err)
		}
		if len(w.Nodes) != len(intact.Nodes) {
			t.Fatalf("damaged edge %d: salvage dropped nodes", idx)
		}
		wantDropped := 1 + sharers[idx]
		if rep.EdgesDropped != wantDropped {
			t.Fatalf("damaged edge %d: %d edges dropped, want %d (1 + %d sharers)",
				idx, rep.EdgesDropped, wantDropped, sharers[idx])
		}
		checkSalvaged(t, w, rep, "edge drop")
	}
	if tested == 0 {
		t.Fatal("no edge sections found")
	}
}

// TestCorruptCleanSalvageIsLossless loads an intact file in salvage mode:
// the report must be clean and the WET equal in shape to the strict load.
func TestCorruptCleanSalvageIsLossless(t *testing.T) {
	data := savedWET(t, "li")
	strict, _, err := LoadWithReport(bytes.NewReader(data), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sal, rep, err := LoadWithReport(bytes.NewReader(data), LoadOptions{Salvage: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("salvage of intact file not clean: %s", rep)
	}
	if len(sal.Nodes) != len(strict.Nodes) || len(sal.Edges) != len(strict.Edges) {
		t.Fatalf("salvage of intact file lost records: %d/%d nodes, %d/%d edges",
			len(sal.Nodes), len(strict.Nodes), len(sal.Edges), len(strict.Edges))
	}
	a := mustCF(strict, core.Tier2, true, nil)
	b := mustCF(sal, core.Tier2, true, nil)
	if a != b {
		t.Fatalf("salvage of intact file changed the CF trace: %d vs %d stmts", b, a)
	}
}

// TestCorruptVerifyLocatesDamage checks Verify attributes a flipped byte to
// the section containing it.
func TestCorruptVerifyLocatesDamage(t *testing.T) {
	data := savedWET(t, "li")
	res, err := Verify(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() || res.BadSections != 0 {
		t.Fatalf("intact file fails Verify: %+v", res)
	}
	secs, _, _, err := scanSections(data, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, pick := range []int{1, len(secs) / 2, len(secs) - 2} {
		s := secs[pick]
		if len(s.payload) == 0 {
			continue
		}
		mut := append([]byte(nil), data...)
		mut[s.offset+5] ^= 0x01
		res, err := Verify(bytes.NewReader(mut))
		if err != nil {
			t.Fatalf("Verify errored on damaged body: %v", err)
		}
		if res.OK() || res.BadSections != 1 {
			t.Fatalf("Verify found %d bad sections, want exactly 1", res.BadSections)
		}
		var bad *SectionStatus
		for i := range res.Sections {
			if !res.Sections[i].CRCOK {
				bad = &res.Sections[i]
			}
		}
		if bad == nil || bad.Offset != s.offset {
			t.Fatalf("Verify blamed offset %v, damage is at %d", bad, s.offset)
		}
	}
}

// TestCorruptSalvageDecodesEagerly: salvage finds damage by decoding, so a salvage
// load ignores Lazy and Segments. A damaged v3 and a damaged v4 file opened
// with Salvage+Lazy or Salvage+Segments come back with every stream
// materialized, nothing registered in the segment source, and queries —
// control flow, value and address traces, backward and forward slices —
// answering as with Salvage alone.
func TestCorruptSalvageDecodesEagerly(t *testing.T) {
	for _, fx := range []struct {
		name string
		data []byte
	}{{"v3", savedWET(t, "li")}, {"v4", savedStreamedWET(t, "li")}} {
		secs, _, _, err := scanSections(fx.data, true)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, s := range secs {
			if s.tag == secEdge {
				n++
			}
		}
		mut := bytes.Clone(fx.data)
		mut[secs[edgeSection(secs, n/2)].offset+7] ^= 0xFF // a payload byte of a middle edge section
		digest := func(w *core.WET) string {
			crit := query.Instance{Node: w.FirstNode}
			fwd, err := query.ForwardSlice(w, core.Tier2, crit, 1000)
			if err == nil {
				return fmt.Sprintf("%s fslice=%d/%d/%v", tierDigest(w, core.Tier2), len(fwd.Instances), fwd.Edges, fwd.Instances[len(fwd.Instances)-1])
			}
			return fmt.Sprintf("%s fslice=%v", tierDigest(w, core.Tier2), err)
		}
		alone, rep, err := loadNoPanic(t, mut, LoadOptions{Salvage: true}, fx.name)
		if err != nil {
			t.Fatalf("%s: salvage: %v", fx.name, err)
		}
		if rep.EdgesDropped == 0 {
			t.Fatalf("%s: the damaged file salvaged whole: %s", fx.name, rep)
		}
		want := digest(alone)
		for _, mode := range []string{"lazy", "segments"} {
			opts, ss := LoadOptions{Salvage: true, Lazy: mode == "lazy"}, NewSegmentSource()
			if mode == "segments" {
				opts.Segments = ss
			}
			w, _, err := loadNoPanic(t, mut, opts, fx.name+" "+mode)
			if err != nil {
				t.Fatalf("%s %s: salvage: %v", fx.name, mode, err)
			}
			for _, s := range wetStreams(w) {
				if !stream.Materialized(s) {
					t.Fatalf("%s %s: a salvaged stream was left to decode on first touch", fx.name, mode)
				}
			}
			if ss.Len() != 0 {
				t.Fatalf("%s %s: salvage registered %d segments", fx.name, mode, ss.Len())
			}
			if got := digest(w); got != want {
				t.Errorf("%s %s: queries disagree with Salvage alone:\n got  %s\n want %s", fx.name, mode, got, want)
			}
		}
	}
}
