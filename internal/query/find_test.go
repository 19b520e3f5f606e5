package query

import (
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

// tsViews returns one walker per representation a node's timestamps come
// in, each over a one-node WET holding vals: a tier-1 slice, every stream
// kind at several checkpoint spacings, and segments of epochs of 16, 64 and
// 500 timestamps stored epoch-local, as a streamed WET stores them.
func tsViews(rng *rand.Rand, vals []uint32) map[string]*Walker {
	view := func(n *core.Node, epochTS uint32, tier core.Tier) *Walker {
		return &Walker{w: &core.WET{Nodes: []*core.Node{n}, EpochTS: epochTS}, tier: tier}
	}
	out := map[string]*Walker{"tier1": view(&core.Node{TS: vals}, 0, core.Tier1)}
	for _, spec := range stream.Candidates {
		for _, k := range []int{-1, 0, 7, 64} {
			out[fmt.Sprintf("%s/k%d", spec, k)] = view(&core.Node{TSS: stream.CompressK(vals, spec, k)}, 0, core.Tier2)
		}
	}
	for _, epochTS := range []uint32{16, 64, 500} {
		n := &core.Node{}
		for rest := vals; len(rest) > 0; {
			epoch := (rest[0] - 1) / epochTS
			k, _ := slices.BinarySearch(rest, (epoch+1)*epochTS+1)
			local := slices.Clone(rest[:k])
			for i := range local {
				local[i] -= epoch * epochTS
			}
			spec := stream.Candidates[rng.Intn(len(stream.Candidates))]
			n.TSSegs = append(n.TSSegs, &core.LabelSeg{Epoch: int(epoch), N: k, S: stream.CompressK(local, spec, 16)})
			rest = rest[k:]
		}
		out[fmt.Sprintf("epochs%d", epochTS)] = view(n, epochTS, core.Tier2)
	}
	return out
}

// TestTSWindowMatchesSearch: whatever the representation, the order targets
// come in and the direction each is asked in, one node's window answers what
// a binary search over the plain values answers — in a segmented sequence
// across epochs the node has no segment in, too. A windowless lookup (the
// scratch read a search makes) answers the same.
func TestTSWindowMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, n := range []int{1, 2, walkChunk - 1, walkChunk, walkChunk + 1, 3*walkChunk + 5, 1500} {
		vals := increasing(rng, n)
		// Every value from below the first to above the last: present and
		// absent targets alike.
		var all []uint32
		for v := vals[0] - 1; v <= vals[n-1]+2; v++ {
			all = append(all, v)
		}
		desc := slices.Clone(all)
		slices.Reverse(desc)
		mixed := slices.Clone(all)
		rng.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
		// Long jumps between neighbourhoods, as StartAt and direction changes
		// make them.
		var jumps []uint32
		for i := 0; i < 200; i++ {
			base := vals[rng.Intn(n)]
			jumps = append(jumps, base, base+1, base-1)
		}
		orders := map[string][]uint32{"ascending": all, "descending": desc, "mixed": mixed, "jumps": jumps}
		for name, wk := range tsViews(rng, vals) {
			for order, targets := range orders {
				h := &tsWin{n: wk.w.Nodes[0], v: make([]uint32, 0, walkChunk)}
				for _, target := range targets {
					want, ok := slices.BinarySearch(vals, target)
					if !ok {
						want = -1
					}
					back := rng.Intn(2) == 0
					if got := h.find(wk, target, back); got != want {
						t.Fatalf("%s n=%d %s: find(%d, back=%v) = %d, want %d", name, n, order, target, back, got, want)
					}
					if order != "jumps" {
						continue
					}
					if got := wk.lookup(0, target, back); got != want {
						t.Fatalf("%s n=%d: windowless lookup(%d, back=%v) = %d, want %d", name, n, target, back, got, want)
					}
				}
			}
		}
	}
}
