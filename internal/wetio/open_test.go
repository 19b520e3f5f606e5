package wetio

import (
	"bytes"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"wet/internal/core"
	"wet/internal/stream"
)

// cfDigest fingerprints a trace as queries observe it: trace length plus
// the control-flow statement sequence in the given direction.
func cfDigest(w *core.WET, tier core.Tier, forward bool) uint64 {
	h := fnv.New64a()
	var b [4]byte
	emit := func(v uint32) {
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(b[:])
	}
	emit(w.Time)
	mustCF(w, tier, forward, func(id int) { emit(uint32(id)) })
	return h.Sum64()
}

// openFixtures returns saved WET files covering all three on-disk formats:
// v3 (single-epoch) and v4 (multi-epoch) of several workloads, plus the
// committed v2 fixture.
func openFixtures(t *testing.T) map[string][]byte {
	t.Helper()
	fx := map[string][]byte{}
	for _, name := range []string{"li", "gzip", "mcf"} {
		var buf bytes.Buffer
		if err := Save(&buf, buildFrozen(t, name)); err != nil {
			t.Fatal(err)
		}
		fx[name+"_v3"] = buf.Bytes()
		fx[name+"_v4"] = savedStreamedWET(t, name)
	}
	if data, err := os.ReadFile(filepath.Join("testdata", "li_v2.wet")); err == nil {
		fx["li_v2"] = data
	}
	return fx
}

// TestOpenVariantsEquivalent pins the fast open paths to the serial eager
// one: every (workers, lazy) combination must produce a trace whose queries
// (tierDigest: control flow both ways, values, addresses, a backward slice)
// digest identically, on every format. The digest reaches every kind of
// stream, so it is also the everything-materializes check for lazy opens.
func TestOpenVariantsEquivalent(t *testing.T) {
	variants := []struct {
		name string
		opts LoadOptions
	}{
		{"workers2", LoadOptions{Workers: 2}},
		{"workers8", LoadOptions{Workers: 8}},
		{"parallel", LoadOptions{Workers: 0}},
		{"lazy", LoadOptions{Lazy: true}},
		{"lazy_parallel", LoadOptions{Lazy: true, Workers: 0}},
	}
	for name, data := range openFixtures(t) {
		base, err := Load(bytes.NewReader(data), LoadOptions{Workers: 1})
		if err != nil {
			t.Fatalf("%s: eager load: %v", name, err)
		}
		want := tierDigest(base, core.Tier2)
		for _, v := range variants {
			w, err := Load(bytes.NewReader(data), v.opts)
			if err != nil {
				t.Fatalf("%s/%s: load: %v", name, v.name, err)
			}
			if got := tierDigest(w, core.Tier2); got != want {
				t.Errorf("%s/%s: digest\n %s\n!= eager\n %s", name, v.name, got, want)
			}
		}
	}
}

// TestLazyOpenConcurrentQueries opens a multi-epoch file lazily and fires
// parallel queries at it: their first touches race into the deferred
// decodes (including shared edge segments reached through two edges). Run
// under -race this is the concurrent-materialization safety proof at the
// container level.
func TestLazyOpenConcurrentQueries(t *testing.T) {
	data := savedStreamedWET(t, "gzip")
	w, err := Load(bytes.NewReader(data), LoadOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	want := cfDigest(mustLoad(t, data), core.Tier2, true)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		fwd := g%2 == 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := cfDigest(w, core.Tier2, true)
			if d != want {
				t.Errorf("concurrent query digest %016x, want %016x", d, want)
			}
			// Also push a backward walk through the same lazy streams.
			if !fwd {
				mustCF(w, core.Tier2, false, nil)
			}
		}()
	}
	wg.Wait()
}

// TestPackedPayloadsViewOnlyLazily pins the view/copy rule packed streams
// share with Evictable: a lazy open reads packed payloads in place from the
// drained file buffer, an eager or Segments open reads its own copy. After
// each open the buffer is inverted; only the lazy open's packed streams may
// then read differently, and every one of them must.
func TestPackedPayloadsViewOnlyLazily(t *testing.T) {
	var v3 bytes.Buffer
	if err := Save(&v3, buildFrozen(t, "li")); err != nil {
		t.Fatal(err)
	}
	for _, fx := range []struct {
		name string
		data []byte
	}{{"v3", v3.Bytes()}, {"v4", savedStreamedWET(t, "li")}} {
		for _, c := range []struct {
			name string
			opts LoadOptions
			view bool
		}{
			{"eager", LoadOptions{Workers: 1}, false},
			{"lazy", LoadOptions{Lazy: true}, true},
			{"segments", LoadOptions{Segments: NewSegmentSource()}, false},
		} {
			file := bytes.Clone(fx.data)
			w, _, err := loadFramed(file, c.opts, fx.name == "v4")
			if err != nil {
				t.Fatalf("%s/%s: %v", fx.name, c.name, err)
			}
			var packed []stream.Stream
			for _, s := range wetStreams(w) {
				if strings.HasPrefix(s.Name(), "packed") && s.Name() != "packed0" && s.Len() > 0 {
					packed = append(packed, s)
				}
			}
			before := make([][]uint32, len(packed))
			for i, s := range packed {
				before[i] = drainStream(s)
			}
			for i := range file {
				file[i] ^= 0xff
			}
			moved := 0
			for i, s := range packed {
				if !slices.Equal(drainStream(s), before[i]) {
					moved++
				}
			}
			want := 0
			if c.view {
				want = len(packed)
			}
			if len(packed) == 0 || moved != want {
				t.Errorf("%s/%s: %d of %d packed streams read the inverted buffer, want %d", fx.name, c.name, moved, len(packed), want)
			}
		}
	}
}

// wetStreams lists every tier-2 stream a loaded WET holds, whole-run and
// per-epoch.
func wetStreams(w *core.WET) []stream.Stream {
	var out []stream.Stream
	add := func(ss ...stream.Stream) {
		for _, s := range ss {
			if s != nil {
				out = append(out, s)
			}
		}
	}
	addSegs := func(segs []*core.LabelSeg) {
		for _, sg := range segs {
			add(sg.S)
		}
	}
	for _, n := range w.Nodes {
		add(n.TSS)
		addSegs(n.TSSegs)
		for _, g := range n.Groups {
			add(g.PatternS)
			add(g.UValS...)
			addSegs(g.PatSegs)
			for _, segs := range g.UValSegs {
				addSegs(segs)
			}
		}
	}
	for _, e := range w.Edges {
		add(e.DstS, e.SrcS)
		for _, sg := range e.Segs {
			add(sg.DstS, sg.SrcS)
		}
	}
	return out
}

func mustLoad(t *testing.T, data []byte) *core.WET {
	t.Helper()
	w, err := Load(bytes.NewReader(data), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestVerifyAllocationBounded proves Verify is non-materializing: walking a
// file with many megabytes of section payload must allocate far less than
// the payload it checks (one chunk buffer, one bufio reader, and a status
// line per section).
func TestVerifyAllocationBounded(t *testing.T) {
	// Handcraft a structurally minimal v3 file whose sections carry large
	// random payloads. Verify checks framing and CRCs only, so the payload
	// contents never parse.
	rng := rand.New(rand.NewSource(3))
	var buf bytes.Buffer
	sw := newSectionWriter(&buf, order.AppendUint32(order.AppendUint32(nil, magic), version))
	const secSize = 2 << 20
	for i := 0; i < 8; i++ {
		payload := make([]byte, secSize)
		rng.Read(payload)
		if _, err := sw.Write(payload); err != nil {
			t.Fatal(err)
		}
		if err := sw.emit(secNode); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.emit(secEnd); err != nil {
		t.Fatal(err)
	}
	if err := sw.close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	var res *VerifyResult
	var err error
	allocated := allocBytes(func() {
		res, err = Verify(bytes.NewReader(data))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() || len(res.Sections) != 9 {
		t.Fatalf("verify result wrong: ok=%v sections=%d", res.OK(), len(res.Sections))
	}
	// The walk's working set is ~192KB (bufio + chunk buffer + statuses);
	// allow generous slack but stay far below the ~16MB of payload.
	if limit := uint64(1 << 20); allocated > limit {
		t.Fatalf("Verify allocated %d bytes over a %d-byte file (limit %d): payloads are being retained",
			allocated, len(data), limit)
	}
}

// allocBytes measures the heap bytes allocated by f on this goroutine.
func allocBytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
