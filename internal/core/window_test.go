package core_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"wet/internal/core"
	"wet/internal/stream"
)

// increasing returns n strictly increasing values with gaps, and now and
// then a jump wide enough to leave whole epochs of tsViews' segmentings
// empty, so targets below, between and above them exist.
func increasing(rng *rand.Rand, n int) []uint32 {
	vals := make([]uint32, n)
	v := uint32(1 + rng.Intn(4))
	for i := range vals {
		vals[i] = v
		v += uint32(1 + rng.Intn(5))
		if rng.Intn(50) == 0 {
			v += 300
		}
	}
	return vals
}

func randomSpec(rng *rand.Rand) stream.Spec {
	return stream.Candidates[rng.Intn(len(stream.Candidates))]
}

// epochSegs cuts timestamps vals into the segments of epochs of epochTS
// timestamps, stored epoch-local as a streamed WET stores them.
func epochSegs(rng *rand.Rand, vals []uint32, epochTS uint32) []*core.LabelSeg {
	var segs []*core.LabelSeg
	for rest := vals; len(rest) > 0; {
		epoch := (rest[0] - 1) / epochTS
		k, _ := slices.BinarySearch(rest, (epoch+1)*epochTS+1)
		local := slices.Clone(rest[:k])
		for i := range local {
			local[i] -= epoch * epochTS
		}
		segs = append(segs, &core.LabelSeg{Epoch: int(epoch), N: k, S: stream.Compress(local, randomSpec(rng))})
		rest = rest[k:]
	}
	return segs
}

// tsViews returns a window factory per representation a node's timestamps
// come in, each over a one-node WET holding vals: a tier-1 slice, every
// stream kind, and segments of epochs of 16, 64 and 500 timestamps.
func tsViews(rng *rand.Rand, vals []uint32) map[string]func() core.Window {
	view := func(n *core.Node, epochTS uint32, tier core.Tier) func() core.Window {
		w := &core.WET{Nodes: []*core.Node{n}, EpochTS: epochTS}
		return func() core.Window { return w.TSWindow(n, tier, nil) }
	}
	out := map[string]func() core.Window{"tier1": view(&core.Node{TS: vals}, 0, core.Tier1)}
	for _, spec := range stream.Candidates {
		out[spec.String()] = view(&core.Node{TSS: stream.Compress(vals, spec)}, 0, core.Tier2)
	}
	for _, epochTS := range []uint32{16, 64, 500} {
		out[fmt.Sprintf("epochs%d", epochTS)] = view(&core.Node{TSSegs: epochSegs(rng, vals, epochTS)}, epochTS, core.Tier2)
	}
	return out
}

// edgeLabels is one edge's labels over epochs: destination ordinals strictly
// increasing, the epoch each is stored in, and source ordinals.
type edgeLabels struct {
	dst, src []uint32
	epoch    []int
	epochTS  uint32
}

// randomEdge draws about n labels over epochs of epochTS timestamps, epoch by
// epoch: a quarter of the epochs hold none, and the rest are inferable ramps,
// <k,k> pairs off a ramp, shared with another edge, or stored.
func randomEdge(rng *rand.Rand, n int, epochTS uint32) edgeLabels {
	l := edgeLabels{epochTS: epochTS}
	ord := uint32(rng.Intn(3))
	for epoch := 0; len(l.dst) < n; epoch++ {
		if rng.Intn(4) == 0 {
			continue
		}
		kind, c := rng.Intn(4), 1+rng.Intn(2*core.WalkChunk)
		for i := 0; i < c; i++ {
			if kind != 0 {
				ord += uint32(rng.Intn(3))
			}
			src := ord
			if kind >= 2 {
				src = uint32(rng.Intn(1000))
			}
			l.dst, l.src, l.epoch = append(l.dst, ord), append(l.src, src), append(l.epoch, epoch)
			ord++
		}
	}
	return l
}

// ts returns a timestamp in epoch.
func (l edgeLabels) ts(rng *rand.Rand, epoch int) uint32 {
	return uint32(epoch)*l.epochTS + 1 + uint32(rng.Intn(int(l.epochTS)))
}

// segmented stores l as edge 1 of a two-edge WET, one segment per epoch that
// holds labels: a ramp where its pairs are <k,k> with consecutive k, a
// stored segment, or a segment shared with edge 0.
func (l edgeLabels) segmented(rng *rand.Rand) (*core.WET, *core.Edge) {
	rep := &core.Edge{SharedWith: -1}
	e := &core.Edge{SharedWith: -1}
	for lo := 0; lo < len(l.dst); {
		hi := lo + 1
		for hi < len(l.dst) && l.epoch[hi] == l.epoch[lo] {
			hi++
		}
		dst, src := l.dst[lo:hi], l.src[lo:hi]
		sg := &core.EdgeSeg{Epoch: l.epoch[lo], N: hi - lo, SharedWith: -1, SharedSeg: -1}
		switch {
		case slices.Equal(dst, src) && int(dst[len(dst)-1]-dst[0]) == len(dst)-1 && rng.Intn(2) == 0:
			sg.Inferable, sg.RampBase = true, dst[0]
		default:
			sg.DstS, sg.SrcS = stream.Compress(dst, randomSpec(rng)), stream.Compress(src, randomSpec(rng))
			if rng.Intn(2) == 0 {
				owned := *sg
				rep.Segs = append(rep.Segs, &owned)
				sg.SharedWith, sg.SharedSeg, sg.DstS, sg.SrcS = 0, len(rep.Segs)-1, nil, nil
			}
		}
		e.Segs = append(e.Segs, sg)
		lo = hi
	}
	return &core.WET{Edges: []*core.Edge{rep, e}, EpochTS: l.epochTS}, e
}

// edgeView is one representation of an edge's labels; keyed views read only
// the segment of the timestamp an ask names.
type edgeView struct {
	keyed bool
	open  func() (dst, src core.Window)
}

func edgeViews(rng *rand.Rand, l edgeLabels) map[string]edgeView {
	w, e := l.segmented(rng)
	single := &core.Edge{SharedWith: -1, DstOrd: l.dst, SrcOrd: l.src,
		DstS: stream.Compress(l.dst, randomSpec(rng)), SrcS: stream.Compress(l.src, randomSpec(rng))}
	w1 := &core.WET{Edges: []*core.Edge{single}}
	return map[string]edgeView{
		"tier1":     {false, func() (core.Window, core.Window) { return w1.EdgeWindows(single, core.Tier1, true) }},
		"stream":    {false, func() (core.Window, core.Window) { return w1.EdgeWindows(single, core.Tier2, true) }},
		"federated": {false, func() (core.Window, core.Window) { return w.EdgeWindows(e, core.Tier2, false) }},
		"by epoch":  {true, func() (core.Window, core.Window) { return w.EdgeWindows(e, core.Tier2, true) }},
	}
}

// targetOrders returns every value from below the first to above the last —
// present and absent targets alike — ascending, descending and shuffled, and
// long jumps between neighbourhoods, as StartAt and direction changes make
// them.
func targetOrders(rng *rand.Rand, vals []uint32) map[string][]uint32 {
	var all []uint32
	for v := max(vals[0], 1) - 1; v <= vals[len(vals)-1]+2; v++ {
		all = append(all, v)
	}
	desc := slices.Clone(all)
	slices.Reverse(desc)
	mixed := slices.Clone(all)
	rng.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
	var jumps []uint32
	for i := 0; i < 200; i++ {
		base := vals[rng.Intn(len(vals))]
		jumps = append(jumps, base, base+1, max(base, 1)-1)
	}
	return map[string][]uint32{"ascending": all, "descending": desc, "mixed": mixed, "jumps": jumps}
}

func indexOf(vals []uint32, t uint32) int {
	if k, ok := slices.BinarySearch(vals, t); ok {
		return k
	}
	return -1
}

// TestTSWindowMatchesSearch: whatever the representation, the order targets
// come in and the direction each is asked in, a window answers what a binary
// search over the plain values answers — in a segmented sequence across
// epochs it has no segment in, too — and At, asked for random elements in
// either direction between the searches, what SeqAt answers. A windowless
// lookup (a fresh window per ask, the scratch read a search makes) answers
// the same. Node timestamps and both sides of edge labels alike: an edge is
// segmented into inferable, shared and stored segments, and a
// keyed edge window finds a label only in the epoch of the timestamp it is
// asked with.
func TestTSWindowMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, n := range []int{1, 2, core.WalkChunk - 1, core.WalkChunk, core.WalkChunk + 1, 3*core.WalkChunk + 5, 1500} {
		vals := increasing(rng, n)
		plain := (&core.WET{}).TSSeq(&core.Node{TS: vals}, core.Tier1)
		for name, fresh := range tsViews(rng, vals) {
			for order, targets := range targetOrders(rng, vals) {
				h := fresh()
				for _, target := range targets {
					back := rng.Intn(2) == 0
					if rng.Intn(16) == 0 {
						i := rng.Intn(n)
						if got := h.At(i, back); got != core.SeqAt(plain, i) {
							t.Fatalf("%s n=%d %s: At(%d, back=%v) = %d, want %d", name, n, order, i, back, got, vals[i])
						}
					}
					want := indexOf(vals, target)
					if got := h.Find(target, target, back); got != want {
						t.Fatalf("%s n=%d %s: Find(%d, back=%v) = %d, want %d", name, n, order, target, back, got, want)
					}
					if order != "jumps" {
						continue
					}
					if w := fresh(); w.Find(target, target, back) != want {
						t.Fatalf("%s n=%d: windowless Find(%d, back=%v) != %d", name, n, target, back, want)
					}
				}
			}
		}

		l := randomEdge(rng, min(n, 500), []uint32{16, 64, 500}[rng.Intn(3)])
		for name, v := range edgeViews(rng, l) {
			for order, targets := range targetOrders(rng, l.dst) {
				dst, src := v.open()
				for _, target := range targets {
					back := rng.Intn(2) == 0
					k := indexOf(l.dst, target)
					epoch := rng.Intn(l.epoch[len(l.epoch)-1] + 2)
					if k >= 0 && rng.Intn(4) != 0 {
						epoch = l.epoch[k]
					}
					want := k
					if v.keyed && k >= 0 && epoch != l.epoch[k] {
						want = -1
					}
					ts := l.ts(rng, epoch)
					got := dst.Find(target, ts, back)
					if got != want {
						t.Fatalf("edge %s n=%d %s: Find(%d, epoch %d, back=%v) = %d, want %d", name, n, order, target, epoch, back, got, want)
					}
					if got >= 0 && src.At(got, back) != l.src[got] {
						t.Fatalf("edge %s n=%d %s: source At(%d) = %d, want %d", name, n, order, got, src.At(got, back), l.src[got])
					}
					if i := rng.Intn(len(l.src)); rng.Intn(16) == 0 && src.At(i, back) != l.src[i] {
						t.Fatalf("edge %s n=%d %s: source At(%d, back=%v) = %d, want %d", name, n, order, i, back, src.At(i, back), l.src[i])
					}
					if order != "jumps" {
						continue
					}
					if d, _ := v.open(); d.Find(target, ts, back) != want {
						t.Fatalf("edge %s n=%d: windowless Find(%d, epoch %d, back=%v) != %d", name, n, target, epoch, back, want)
					}
				}
			}
		}
	}
}

// FuzzWindow: a random sorted sequence in random segments, read by node
// timestamp windows and by edge label windows, answers any sequence of Find
// and At asks, in any direction, as the plain slice does.
func FuzzWindow(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(15), []byte{0, 1, 2, 3, 200, 100, 7, 8, 9, 255, 254, 253})
	f.Add(int64(7), uint16(64), uint8(0), []byte{1, 0, 0, 3, 0, 63, 0, 0, 64, 2, 0, 1})
	f.Fuzz(func(t *testing.T, seed int64, n uint16, epoch uint8, asks []byte) {
		rng := rand.New(rand.NewSource(seed))
		vals := increasing(rng, 1+int(n)%2000)
		epochTS := uint32(epoch) + 1
		w := &core.WET{Nodes: []*core.Node{{TSSegs: epochSegs(rng, vals, epochTS)}}, EpochTS: epochTS}
		ts := w.TSWindow(w.Nodes[0], core.Tier2, nil)
		l := edgeLabels{epochTS: epochTS, src: make([]uint32, len(vals))}
		for i, v := range vals {
			l.dst, l.epoch = append(l.dst, v-1), append(l.epoch, int((v-1)/epochTS))
			l.src[i] = uint32(rng.Intn(1 << 20))
			if seed%2 == 0 {
				l.src[i] = v - 1 // <k,k> pairs, and ramps where ordinals run on
			}
		}
		we, e := l.segmented(rng)
		dst, src := we.EdgeWindows(e, core.Tier2, true)
		for ; len(asks) >= 4; asks = asks[4:] {
			back, i := asks[0]&1 != 0, int(binary.LittleEndian.Uint16(asks[2:]))%len(vals)
			target := vals[i] + uint32(asks[1]%3) - 1 // present, or a neighbour
			switch asks[0] >> 1 % 4 {
			case 0:
				if got, want := ts.Find(target, target, back), indexOf(vals, target); got != want {
					t.Fatalf("timestamps: Find(%d, back=%v) = %d, want %d", target, back, got, want)
				}
			case 1:
				if got := ts.At(i, back); got != vals[i] {
					t.Fatalf("timestamps: At(%d, back=%v) = %d, want %d", i, back, got, vals[i])
				}
			case 2:
				if got, want := dst.Find(target-1, target, back), indexOf(l.dst, target-1); got != want {
					t.Fatalf("edge: Find(%d, back=%v) = %d, want %d", target-1, back, got, want)
				}
			default:
				if got := src.At(i, back); got != l.src[i] {
					t.Fatalf("edge: source At(%d, back=%v) = %d, want %d", i, back, got, l.src[i])
				}
			}
		}
	})
}
