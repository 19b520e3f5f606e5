package stream

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"wet/internal/faultpoint"
)

// deferredKind reports whether Scan defers a kind's decode (the predictor
// methods, whose load cost is the normalization walk) or loads it eagerly
// (verbatim and packed, which are already position-free).
func deferredKind(k Kind) bool {
	switch k {
	case KindVerbatim, KindPacked:
		return false
	}
	return true
}

func repeatRamp(n int) []uint32 {
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(i % 97)
	}
	return vals
}

// TestScanMatchesLoad pins Scan's deferred streams to Load's eager ones:
// header facts available without decoding, a byte-identical re-Save that
// decodes nothing, and identical values in both directions after the first
// touch.
func TestScanMatchesLoad(t *testing.T) {
	for name, vals := range datasets() {
		for _, spec := range allSpecs() {
			data := saveBytes(t, vals, spec)
			eager, _, err := Load(data)
			if err != nil {
				t.Fatalf("%s/%s: Load: %v", name, spec, err)
			}
			lazy, _, err := Scan(data)
			if err != nil {
				t.Fatalf("%s/%s: Scan: %v", name, spec, err)
			}
			if Materialized(lazy) != !deferredKind(spec.Kind) {
				t.Fatalf("%s/%s: Materialized = %v before first touch", name, spec, Materialized(lazy))
			}
			// Header facts and Save must not force the decode.
			if lazy.Len() != eager.Len() {
				t.Fatalf("%s/%s: lazy Len %d != %d", name, spec, lazy.Len(), eager.Len())
			}
			if lazy.SizeBits() != eager.SizeBits() {
				t.Fatalf("%s/%s: lazy SizeBits %d != %d", name, spec, lazy.SizeBits(), eager.SizeBits())
			}
			if lazy.Name() != eager.Name() {
				t.Fatalf("%s/%s: lazy Name %q != %q", name, spec, lazy.Name(), eager.Name())
			}
			var buf bytes.Buffer
			if err := saveTo(&buf, lazy); err != nil {
				t.Fatalf("%s/%s: Save of scanned stream: %v", name, spec, err)
			}
			if !bytes.Equal(buf.Bytes(), data) {
				t.Fatalf("%s/%s: Save of scanned stream not byte-identical", name, spec)
			}
			if deferredKind(spec.Kind) {
				if Materialized(lazy) {
					t.Fatalf("%s/%s: header reads or Save forced the decode", name, spec)
				}
				if cb := lazy.CheckpointBits(); cb != 0 {
					t.Fatalf("%s/%s: CheckpointBits %d before decode, want 0", name, spec, cb)
				}
			}
			// First touch: traverse both directions and compare.
			c := lazy.NewCursor()
			if !Materialized(lazy) {
				t.Fatalf("%s/%s: NewCursor did not materialize", name, spec)
			}
			for i := 0; i < len(vals); i++ {
				if got := c.Next(); got != vals[i] {
					t.Fatalf("%s/%s: lazy fwd value %d = %d, want %d", name, spec, i, got, vals[i])
				}
			}
			for i := len(vals) - 1; i >= 0; i-- {
				if got := c.Prev(); got != vals[i] {
					t.Fatalf("%s/%s: lazy bwd value %d = %d, want %d", name, spec, i, got, vals[i])
				}
			}
			if lazy.CheckpointBits() != eager.CheckpointBits() {
				t.Fatalf("%s/%s: post-decode CheckpointBits %d != %d",
					name, spec, lazy.CheckpointBits(), eager.CheckpointBits())
			}
		}
	}
}

// TestScanRejectsStructuralGarbage: structural validation still happens at
// scan time, only the normalization walk is deferred.
func TestScanRejectsStructuralGarbage(t *testing.T) {
	if _, _, err := Scan([]byte{250, 0, 0, 0, 0}); err == nil {
		t.Fatal("Scan accepted an unknown kind tag")
	}
	data := saveBytes(t, []uint32{1, 2, 3}, Spec{KindFCM, 1})
	if _, _, err := Scan(data[:len(data)-2]); err == nil {
		t.Fatal("Scan accepted a truncated stream")
	}
}

// hookRecorder counts hook invocations and can veto loads.
type hookRecorder struct {
	mu          sync.Mutex
	loads, hits int
	weight      uint64
	veto        error
}

func (h *hookRecorder) BeforeLoad(e *Evictable) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.veto
}
func (h *hookRecorder) AfterLoad(e *Evictable, w uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.loads++
	h.weight += w
}
func (h *hookRecorder) Touched(e *Evictable) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.hits++
}

// counts reads the recorder; a nil recorder (an unhooked stream) reads as
// whatever the caller expects, so one assertion serves hooked and unhooked.
func (h *hookRecorder) counts(wantLoads, wantHits int) (loads, hits int) {
	if h == nil {
		return wantLoads, wantHits
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.loads, h.hits
}

// deferredVariant is one way the one deferred type is held: over a view of
// the scanned buffer (a lazy open) or its own copy (a segment), with or
// without residency hooks.
type deferredVariant struct {
	name          string
	owned, hooked bool
}

var deferredVariants = []deferredVariant{
	{"view", false, false},
	{"view+hooks", false, true},
	{"owned", true, false},
	{"owned+hooks", true, true},
}

// scan returns data's stream held the variant's way. An owned stream's
// source buffer is stomped afterwards: Own must have copied it.
func (v deferredVariant) scan(t *testing.T, data []byte) (*Evictable, *hookRecorder) {
	t.Helper()
	buf := bytes.Clone(data)
	s, n, err := Scan(buf)
	if err != nil || n != len(data) {
		t.Fatalf("Scan: %d of %d bytes, %v", n, len(data), err)
	}
	ev, ok := s.(*Evictable)
	if !ok {
		t.Fatalf("Scan returned %T, want a deferred stream", s)
	}
	if v.owned {
		ev.Own()
		for i := range buf {
			buf[i] = 0xA5
		}
	}
	if ev.RawBytes() != uint64(len(data)) || ev.Resident() {
		t.Fatalf("fresh stream: %d raw bytes of %d, resident=%v", ev.RawBytes(), len(data), ev.Resident())
	}
	var h *hookRecorder
	if v.hooked {
		h = &hookRecorder{}
		ev.SetHooks(h)
	}
	return ev, h
}

// forgedEmptyStores claims two values over empty entry stores: structurally
// plausible, so Scan accepts it; Load rejects it.
func forgedEmptyStores() []byte {
	var buf bytes.Buffer
	writeAll(&buf, uint8(KindFCM),
		uint32(2), // m: claims two values
		uint32(1), // order
		uint32(1), // tbBits
		uint32(0), // pos
		uint64(0)) // size
	writeU32s(&buf, []uint32{0, 0}) // frtb
	writeU32s(&buf, []uint32{0, 0}) // bltb
	writeU32s(&buf, []uint32{0})    // win
	writeEmptyBits(&buf)            // fr
	writeEmptyBits(&buf)            // bl
	return buf.Bytes()
}

// TestScanDeferred runs the deferred stream's contract over every way it is
// held (run under -race): the lazy open's view and the segment's owned copy
// are one type and must not differ in anything but who holds the bytes.
func TestScanDeferred(t *testing.T) {
	vals := repeatRamp(4096)
	data := saveBytes(t, vals, Spec{KindFCM, 2})
	checkVals := func(t *testing.T, got []uint32) {
		t.Helper()
		for i, v := range vals {
			if got[i] != v {
				t.Fatalf("value %d: got %d want %d", i, got[i], v)
			}
		}
	}
	cases := []struct {
		name string
		run  func(*testing.T, deferredVariant)
	}{
		{"RoundTrip", func(t *testing.T, v deferredVariant) {
			ev, h := v.scan(t, data)
			if ev.Len() != len(vals) {
				t.Fatalf("Len = %d, want %d", ev.Len(), len(vals))
			}
			checkVals(t, Drain(ev))
			if !ev.Resident() || ev.ResidentBytes() == 0 {
				t.Fatal("not resident after touch")
			}
			ev.NewCursor()
			if w := ev.Evict(); w == 0 || ev.Resident() || ev.CheckpointBits() != 0 {
				t.Fatalf("evict released %d bytes, resident=%v", w, ev.Resident())
			}
			checkVals(t, Drain(ev)) // re-decoded from the retained bytes
			if loads, hits := h.counts(2, 1); loads != 2 || hits != 1 {
				t.Fatalf("loads=%d hits=%d, want 2 loads 1 hit", loads, hits)
			}
			if h != nil && h.weight == 0 {
				t.Fatal("zero admitted weight")
			}
		}},
		{"ConcurrentFirstTouch", func(t *testing.T, v deferredVariant) {
			for _, spec := range []Spec{{KindFCM, 2}, {KindDFCM, 1}, {KindLastN, 4}, {KindLastNStride, 2}} {
				ev, h := v.scan(t, saveBytes(t, vals, spec))
				var wg sync.WaitGroup
				for g := 0; g < 8; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						c := ev.NewCursor()
						for i := range vals {
							if got := c.Next(); got != vals[i] {
								t.Errorf("%s: concurrent value %d = %d, want %d", spec, i, got, vals[i])
								return
							}
						}
					}()
				}
				wg.Wait()
				if loads, hits := h.counts(1, 7); loads != 1 || hits != 7 {
					t.Fatalf("%s: 8 racing touches made %d loads %d hits, want 1 and 7", spec, loads, hits)
				}
			}
		}},
		{"ConcurrentTouchEvict", func(t *testing.T, v deferredVariant) {
			ev, _ := v.scan(t, data)
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(seed int) {
					defer wg.Done()
					for it := 0; it < 30; it++ {
						c := ev.NewCursor()
						i := (seed*131 + it*37) % len(vals)
						c.Seek(i)
						if got := c.Next(); got != vals[i] {
							t.Errorf("value %d: got %d want %d", i, got, vals[i])
							return
						}
						if it%5 == seed%5 {
							ev.Evict()
						}
					}
				}(g)
			}
			wg.Wait()
		}},
		{"LiveCursorAcrossEvict", func(t *testing.T, v deferredVariant) {
			ev, _ := v.scan(t, data)
			c := ev.NewCursor()
			for i := 0; i < 100; i++ {
				c.Next()
			}
			ev.Evict()
			for i := 100; i < len(vals); i++ {
				if got := c.Next(); got != vals[i] {
					t.Fatalf("value %d after eviction: got %d want %d", i, got, vals[i])
				}
			}
		}},
		{"Veto", func(t *testing.T, v deferredVariant) {
			ev, _ := v.scan(t, data)
			h := &hookRecorder{veto: fmt.Errorf("budget says no")}
			ev.SetHooks(h)
			err := Force(ev)
			var de *DecodeError
			if !errors.As(err, &de) || !errors.Is(err, h.veto) {
				t.Fatalf("vetoed touch returned %v, want *DecodeError wrapping the veto", err)
			}
			if ev.Resident() {
				t.Fatal("resident after vetoed load")
			}
			h.veto = nil // the veto was not cached: the next touch decodes
			checkVals(t, Drain(ev))
		}},
		{"AttachStats", func(t *testing.T, v deferredVariant) {
			ev, _ := v.scan(t, data)
			var before, after SeekCounters
			AttachStats(ev, &before) // forwarded to the decode that has not run yet
			ev.NewCursor().Seek(123)
			AttachStats(ev, &after) // and to the one that has
			ev.NewCursor().Seek(7)
			ev.Evict()
			ev.NewCursor().Seek(9) // and kept across a re-decode
			if StatsOf(ev) != &after || before.Read().Seeks != 1 || after.Read().Seeks != 2 {
				t.Fatalf("seeks before=%d after=%d, want 1 and 2", before.Read().Seeks, after.Read().Seeks)
			}
		}},
		{"ForgedStore", func(t *testing.T, v deferredVariant) {
			seeds := forgedSeeds()
			seeds["empty entry stores"] = forgedEmptyStores()
			for what, forged := range seeds {
				ev, h := v.scan(t, forged)
				for touch := 0; touch < 2; touch++ {
					err := Force(ev)
					var de *DecodeError
					if !errors.As(err, &de) || de.Stream != ev.Name() {
						t.Fatalf("%s: touch %d returned %v, want a *DecodeError naming %s", what, touch, err, ev.Name())
					}
				}
				func() {
					defer func() {
						if _, ok := recover().(*DecodeError); !ok {
							t.Fatalf("%s: NewCursor on a forged store did not panic with *DecodeError", what)
						}
					}()
					ev.NewCursor()
				}()
				if loads, hits := h.counts(0, 0); ev.Resident() || loads != 0 || hits != 0 {
					t.Fatalf("%s: forged store resident=%v after %d loads %d hits", what, ev.Resident(), loads, hits)
				}
			}
		}},
		{"FailpointRetry", func(t *testing.T, v deferredVariant) {
			ev, h := v.scan(t, data)
			if err := faultpoint.Arm("stream.decode", faultpoint.Spec{Action: faultpoint.ActErr, Times: 1}); err != nil {
				t.Fatal(err)
			}
			defer faultpoint.DisarmAll()
			if err := Force(ev); !errors.As(err, new(*DecodeError)) || !errors.As(err, new(*faultpoint.Error)) {
				t.Fatalf("first touch returned %v, want a *DecodeError wrapping the injected fault", err)
			}
			if ev.Resident() {
				t.Fatal("resident after an injected decode failure")
			}
			if err := Force(ev); err != nil {
				t.Fatalf("second touch: %v (a failed decode must be retried, not cached)", err)
			}
			checkVals(t, Drain(ev))
			if loads, hits := h.counts(1, 1); loads != 1 || hits != 1 {
				t.Fatalf("loads=%d hits=%d, want 1 and 1", loads, hits)
			}
		}},
		{"Save", func(t *testing.T, v deferredVariant) {
			ev, _ := v.scan(t, data)
			for _, resident := range []bool{false, true} {
				if resident {
					ev.NewCursor()
				}
				var got bytes.Buffer
				if err := saveTo(&got, ev); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), data) || ev.Resident() != resident {
					t.Fatalf("resident=%v: Save differs from the scanned bytes or changed residency", resident)
				}
			}
		}},
	}
	for _, v := range deferredVariants {
		for _, c := range cases {
			t.Run(v.name+"/"+c.name, func(t *testing.T) { c.run(t, v) })
		}
	}
}

// TestSeekCountersAttach pins the per-stream counters AND the deprecated
// process-global aggregate: an attached stream's seeks land in both.
func TestSeekCountersAttach(t *testing.T) {
	vals := repeatRamp(8192)
	s := Compress(vals, Spec{KindFCM, 2})
	var c SeekCounters
	AttachStats(s, &c)
	if StatsOf(s) != &c {
		t.Fatal("StatsOf does not return the attached counters")
	}

	globalBefore := ReadSeekStats()
	cur := s.NewCursor()
	cur.Seek(len(vals) / 2)
	cur.Seek(7)
	cur.Seek(7) // no-op seek still counts

	per := c.Read()
	if per.Seeks != 3 {
		t.Fatalf("per-stream seeks = %d, want 3", per.Seeks)
	}
	gd := ReadSeekStats().Sub(globalBefore)
	if gd.Seeks < 3 || gd.Steps < per.Steps {
		t.Fatalf("deprecated global aggregate %+v did not absorb per-stream %+v", gd, per)
	}

	// A second, unattached stream must not leak into c.
	s2 := Compress(vals, Spec{KindFCM, 2})
	cur2 := s2.NewCursor()
	cur2.Seek(9)
	if got := c.Read().Seeks; got != 3 {
		t.Fatalf("unattached stream leaked into counters: %d seeks", got)
	}
}
