package stream

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// buildPredictor returns a compressed predictor-backed stream over vals
// (an FCM-friendly sequence so selection picks a predictor, not verbatim).
func buildEvictable(t *testing.T, vals []uint32) (*Evictable, []uint32) {
	t.Helper()
	s := Compress(vals, Spec{KindFCM, 2})
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatalf("save: %v", err)
	}
	scanned, _, err := Scan(buf.Bytes())
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	ev := NewEvictable(scanned)
	if ev == nil {
		t.Skipf("selection chose %s (no deferred decode) for this sequence", scanned.Name())
	}
	return ev, vals
}

func repeatRamp(n int) []uint32 {
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(i % 97)
	}
	return vals
}

func TestEvictableRoundTrip(t *testing.T) {
	ev, vals := buildEvictable(t, repeatRamp(4096))
	if ev.Resident() {
		t.Fatal("resident before first touch")
	}
	if ev.Len() != len(vals) {
		t.Fatalf("Len = %d, want %d", ev.Len(), len(vals))
	}
	got := Drain(ev)
	if !ev.Resident() || ev.ResidentBytes() == 0 {
		t.Fatal("not resident after touch")
	}
	for i, v := range vals {
		if got[i] != v {
			t.Fatalf("value %d: got %d want %d", i, got[i], v)
		}
	}
	w := ev.Evict()
	if w == 0 || ev.Resident() {
		t.Fatalf("evict released %d bytes, resident=%v", w, ev.Resident())
	}
	// Re-decode after eviction must yield identical values.
	got2 := Drain(ev)
	for i, v := range vals {
		if got2[i] != v {
			t.Fatalf("post-evict value %d: got %d want %d", i, got2[i], v)
		}
	}
}

// TestEvictableLiveCursor evicts while a cursor is mid-traversal: the cursor
// must keep reading the stream it was spawned from.
func TestEvictableLiveCursor(t *testing.T) {
	ev, vals := buildEvictable(t, repeatRamp(4096))
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

func TestEvictableHooks(t *testing.T) {
	ev, _ := buildEvictable(t, repeatRamp(4096))
	h := &hookRecorder{}
	ev.SetHooks(h)
	ev.NewCursor()
	ev.NewCursor()
	ev.Evict()
	ev.NewCursor()
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.loads != 2 || h.hits != 1 {
		t.Fatalf("loads=%d hits=%d, want 2 loads 1 hit", h.loads, h.hits)
	}
	if h.weight == 0 {
		t.Fatal("zero admitted weight")
	}
}

func TestEvictableVeto(t *testing.T) {
	ev, _ := buildEvictable(t, repeatRamp(4096))
	veto := fmt.Errorf("budget says no")
	ev.SetHooks(&hookRecorder{veto: veto})
	_, err := TryNewCursor(ev)
	var de *DecodeError
	if !errors.As(err, &de) || !errors.Is(err, veto) {
		t.Fatalf("vetoed touch returned %v, want *DecodeError wrapping the veto", err)
	}
	if ev.Resident() {
		t.Fatal("resident after vetoed load")
	}
}

// TestEvictableConcurrentTouchEvict hammers touches against evictions under
// the race detector: single-flight decode, no torn state.
func TestEvictableConcurrentTouchEvict(t *testing.T) {
	ev, vals := buildEvictable(t, repeatRamp(2048))
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
					panic(fmt.Sprintf("value %d: got %d want %d", i, got, vals[i]))
				}
				if it%5 == seed%5 {
					ev.Evict()
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestEvictableSave pins that an Evictable serializes byte-identically to
// the stream it wraps, resident or not.
func TestEvictableSave(t *testing.T) {
	vals := repeatRamp(4096)
	s := Compress(vals, Spec{KindFCM, 2})
	var orig bytes.Buffer
	if err := Save(&orig, s); err != nil {
		t.Fatal(err)
	}
	scanned, _, err := Scan(orig.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvictable(scanned)
	if ev == nil {
		t.Skipf("selection chose %s for this sequence", scanned.Name())
	}
	var got bytes.Buffer
	if err := Save(&got, ev); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), orig.Bytes()) {
		t.Fatal("evictable Save differs from original serialized form")
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

// TestSeekCountersLazy pins that attaching to a lazy stream before its
// first touch forwards to the decoded inner stream.
func TestSeekCountersLazy(t *testing.T) {
	vals := repeatRamp(4096)
	s := Compress(vals, Spec{KindFCM, 2})
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	scanned, _, err := Scan(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var c SeekCounters
	AttachStats(scanned, &c)
	cur := scanned.NewCursor()
	cur.Seek(123)
	if got := c.Read().Seeks; got != 1 {
		t.Fatalf("lazy stream seeks = %d, want 1", got)
	}
}
