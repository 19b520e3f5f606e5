package stream

import (
	"bytes"
	"strings"
	"sync"
	"testing"
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

// TestScanMatchesLoad pins Scan's lazy streams to Load's eager ones: header
// facts available without decoding, identical values in both directions
// after the first touch, and a byte-identical re-Save.
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
			// Header facts must not force the decode.
			if lazy.Len() != eager.Len() {
				t.Fatalf("%s/%s: lazy Len %d != %d", name, spec, lazy.Len(), eager.Len())
			}
			if lazy.SizeBits() != eager.SizeBits() {
				t.Fatalf("%s/%s: lazy SizeBits %d != %d", name, spec, lazy.SizeBits(), eager.SizeBits())
			}
			if lazy.Name() != eager.Name() {
				t.Fatalf("%s/%s: lazy Name %q != %q", name, spec, lazy.Name(), eager.Name())
			}
			if deferredKind(spec.Kind) {
				if Materialized(lazy) {
					t.Fatalf("%s/%s: header reads forced the decode", name, spec)
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
			// Save materializes and must reproduce the canonical bytes.
			var buf bytes.Buffer
			if err := Save(&buf, lazy); err != nil {
				t.Fatalf("%s/%s: Save of lazy stream: %v", name, spec, err)
			}
			if !bytes.Equal(buf.Bytes(), data) {
				t.Fatalf("%s/%s: Save of lazy stream not byte-identical", name, spec)
			}
		}
	}
}

// TestScanConcurrentFirstTouch races 8 goroutines into one deferred
// stream's first materialization (run under -race): decode must be
// single-flight and every cursor must read the true values.
func TestScanConcurrentFirstTouch(t *testing.T) {
	vals := make([]uint32, 4096)
	for i := range vals {
		vals[i] = uint32(i % 17 * 3)
	}
	for _, spec := range []Spec{{KindFCM, 2}, {KindDFCM, 1}, {KindLastN, 4}, {KindLastNStride, 2}} {
		s, _, err := Scan(saveBytes(t, vals, spec))
		if err != nil {
			t.Fatalf("%s: Scan: %v", spec, err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := s.NewCursor()
				for i := range vals {
					if got := c.Next(); got != vals[i] {
						t.Errorf("%s: concurrent value %d = %d, want %d", spec, i, got, vals[i])
						return
					}
				}
			}()
		}
		wg.Wait()
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

// TestScanDeferredDecodeFailurePanics: a forged store that passes structural
// checks (so Scan accepts it) must fail loudly at first touch, not return
// wrong values. The bytes are the empty-entry-store forgery Load rejects
// eagerly.
func TestScanDeferredDecodeFailurePanics(t *testing.T) {
	var buf bytes.Buffer
	writeAll(&buf, uint8(KindFCM),
		uint32(2), // m: claims two values
		uint32(1), // order
		uint32(1), // tbBits
		uint32(0), // pos
		uint64(0)) // size
	writeU32s(&buf, []uint32{0, 0})      // frtb
	writeU32s(&buf, []uint32{0, 0})      // bltb
	writeU32s(&buf, []uint32{0})         // win
	writeAll(&buf, uint64(0), uint32(0)) // fr bitstack: empty
	writeAll(&buf, uint64(0), uint32(0)) // bl bitstack: empty
	s, _, err := Scan(buf.Bytes())
	if err != nil {
		t.Fatalf("Scan rejected structurally plausible bytes eagerly: %v", err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("first touch of a forged deferred stream did not panic")
		}
		if !strings.Contains(fmtPanic(r), "deferred decode") {
			t.Fatalf("panic %v does not name the deferred decode", r)
		}
	}()
	s.NewCursor()
}

func fmtPanic(r interface{}) string {
	if s, ok := r.(string); ok {
		return s
	}
	if e, ok := r.(error); ok {
		return e.Error()
	}
	return ""
}
