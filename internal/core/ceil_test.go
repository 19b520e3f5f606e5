package core_test

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"wet/internal/core"
	"wet/internal/stream"
)

// ceilView is one representation of an edge's destination labels for Ceil:
// how far before the first label ≥ t a placement may land, and whether a
// segmented one must skip the epochs sealed before the ask's timestamp.
type ceilView struct {
	seq      func() core.Seq
	interval int
	segments bool
}

// ceilViews returns l's destinations at tier 1 (placed exactly), as one
// stream of every kind (packed and verbatim placed exactly, last-n at most a
// checkpoint interval before, FCM, whose spacing follows its table size,
// anywhere at or after lo) and as epoch segments, each under a ramp or one
// checkpoint interval long.
func ceilViews(rng *rand.Rand, l edgeLabels) map[string]ceilView {
	// A tier-1 slice is never nil, if empty.
	w1 := &core.WET{Edges: []*core.Edge{{SharedWith: -1, DstOrd: append([]uint32{}, l.dst...), SrcOrd: append([]uint32{}, l.src...)}}}
	out := map[string]ceilView{"tier1": {seq: func() core.Seq { d, _ := w1.EdgeLabels(w1.Edges[0], core.Tier1); return d }}}
	for _, spec := range stream.Candidates {
		e := &core.Edge{SharedWith: -1, DstS: stream.Compress(l.dst, spec), SrcS: stream.Compress(l.src, spec)}
		v := ceilView{seq: func() core.Seq { d, _ := w1.EdgeLabels(e, core.Tier2); return d }}
		switch spec.Kind {
		case stream.KindLastN, stream.KindLastNStride:
			v.interval = stream.DefaultCheckpointK
		case stream.KindFCM, stream.KindDFCM:
			v.interval = len(l.dst)
		}
		out[spec.String()] = v
	}
	w, e := l.segmented(rng)
	if e.Segs == nil {
		e.Segs = []*core.EdgeSeg{} // no label in any epoch
	}
	out["segmented"] = ceilView{seq: func() core.Seq { d, _ := w.EdgeLabels(e, core.Tier2); return d },
		interval: 2 * core.WalkChunk, segments: true}
	return out
}

// FuzzCeil: a forward reader's placement, on every representation of one
// edge's labels, lands at or after the lower bound it is given and at most
// one checkpoint interval before the first label ≥ t that a linear scan
// finds — on it where any position is read in place — with the cursor
// standing there and reading the labels that follow. Targets fall on labels,
// between them, on checkpoint positions and above the last label; sequences
// are empty, one label long, shorter than a checkpoint interval and several
// long.
func FuzzCeil(f *testing.F) {
	f.Add(int64(1), uint16(3000), uint8(63), []byte{0, 0, 0, 4, 1, 1, 0, 8, 2, 2, 1, 0, 3, 0, 0, 0, 3, 1, 0xdc, 5, 7, 0, 0x10, 9})
	f.Add(int64(2), uint16(0), uint8(15), []byte{0, 0, 0, 0, 3, 0, 0, 0})
	f.Add(int64(3), uint16(1), uint8(0), []byte{0, 1, 0, 0, 3, 2, 0, 0})
	f.Add(int64(4), uint16(700), uint8(200), []byte{1, 2, 9, 1, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, n uint16, epoch uint8, asks []byte) {
		rng := rand.New(rand.NewSource(seed))
		l := randomEdge(rng, int(n)%3500, uint32(epoch)+1)
		if k := int(n) % 3500; len(l.dst) > k {
			l.dst, l.src, l.epoch = l.dst[:k], l.src[:k], l.epoch[:k]
		}
		views := ceilViews(rng, l)
		for ; len(asks) >= 4; asks = asks[4:] {
			c := int(binary.LittleEndian.Uint16(asks[2:])) % (len(l.dst) + 1)
			switch asks[0] % 4 { // where the ceiling falls
			case 1:
				c = c / stream.DefaultCheckpointK * stream.DefaultCheckpointK // on a checkpoint
			case 2:
				c = len(l.dst) // above the last label
			}
			target := uint32(0)
			if c > 0 {
				target = l.dst[c-1] + 1
			}
			if c < len(l.dst) {
				target = l.dst[c] - uint32(asks[1])%(l.dst[c]-target+1) // on the label or in the gap below
			} else {
				target += uint32(asks[1] % 4)
			}
			lo := rng.Intn(c + 1)
			first, last := 0, 0 // the epochs ts may lie in
			if c > 0 {
				first = l.epoch[c-1]
			}
			if last = first + 2; c < len(l.dst) {
				last = l.epoch[c]
			}
			e := first + rng.Intn(last-first+1)
			skipped, _ := slices.BinarySearch(l.epoch, e) // labels sealed before e
			for name, v := range views {
				s := v.seq()
				if asks[0]&4 != 0 && s.Len() > 0 { // place a cursor that has moved
					s.Seek(rng.Intn(s.Len() + 1))
				}
				p := core.Ceil(s, target, lo, l.ts(rng, e))
				if p < lo || p > c || c-p > v.interval || s.Pos() != p {
					t.Fatalf("%s: Ceil(%d, lo %d) = %d at Pos %d, want %d, at most %d before", name, target, lo, p, s.Pos(), c, v.interval)
				}
				if v.segments && p < min(skipped, c) {
					t.Fatalf("%s: Ceil(%d) = %d, before %d, the first label of epoch %d", name, target, p, skipped, e)
				}
				got := make([]uint32, min(c+2, len(l.dst))-p)
				if s.NextN(got); !slices.Equal(got, l.dst[p:p+len(got)]) {
					t.Fatalf("%s: from Ceil(%d) = %d read %v, want %v", name, target, p, got, l.dst[p:p+len(got)])
				}
			}
		}
	})
}
