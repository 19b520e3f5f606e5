package wetio

import (
	"bytes"
	"testing"
)

// FuzzLoad fuzzes the whole-file loader in both strict and salvage modes.
// The corpus is seeded with a real saved WET plus truncated and bit-flipped
// variants, so the fuzzer starts at interesting boundaries instead of
// random noise. Both loads verify their streams: that walks every stream
// both ways, driving the deepest decode paths under the recover boundaries.
func FuzzLoad(f *testing.F) {
	data := savedWET(f, "li")
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add(data[:8])
	f.Add([]byte{})
	flip := append([]byte(nil), data...)
	flip[len(flip)/3] ^= 0x20
	f.Add(flip)
	flip2 := append([]byte(nil), data...)
	flip2[9] ^= 0xFF // first section's tag/length area
	f.Add(flip2)

	f.Fuzz(func(t *testing.T, in []byte) {
		// Strict: must return a WET or an error, never panic.
		w, err := Load(bytes.NewReader(in), LoadOptions{VerifyStreams: true})
		if err == nil && w == nil {
			t.Fatal("strict Load returned nil WET without error")
		}
		// Salvage: additionally, any returned WET must hold the structural
		// invariants the query layer indexes by.
		w, rep, err := LoadWithReport(bytes.NewReader(in), LoadOptions{Salvage: true, VerifyStreams: true})
		if err != nil {
			return
		}
		if w == nil || rep == nil {
			t.Fatal("salvage Load returned nil WET or report without error")
		}
		if len(w.Nodes) == 0 {
			t.Fatal("salvage returned a WET with zero nodes")
		}
		if w.FirstNode < 0 || w.FirstNode >= len(w.Nodes) || w.LastNode < 0 || w.LastNode >= len(w.Nodes) {
			t.Fatal("salvage returned out-of-range first/last node")
		}
		for _, n := range w.Nodes {
			for _, v := range n.CFNext {
				if v < 0 || v >= len(w.Nodes) {
					t.Fatalf("salvaged CFNext entry %d out of range", v)
				}
			}
			for _, v := range n.CFPrev {
				if v < 0 || v >= len(w.Nodes) {
					t.Fatalf("salvaged CFPrev entry %d out of range", v)
				}
			}
		}
		for i, e := range w.Edges {
			if e.SrcNode >= len(w.Nodes) || e.DstNode >= len(w.Nodes) || e.SharedWith >= len(w.Edges) {
				t.Fatalf("salvaged edge %d holds dangling references", i)
			}
		}
	})
}
