package query

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"wet/internal/core"
	"wet/internal/stream"
)

// naiveFind is findOrdered as a single-step scan over the plain values:
// step back while the element behind is not below the target, forward while
// the element ahead is, and look at what is ahead.
func naiveFind(vals []uint32, pos int, target uint32) (idx, end int) {
	for pos > 0 && vals[pos-1] >= target {
		pos--
	}
	for pos < len(vals) && vals[pos] < target {
		pos++
	}
	if pos < len(vals) && vals[pos] == target {
		return pos, pos + 1
	}
	return -1, pos
}

// increasing returns n strictly increasing values with gaps, so targets
// below, between and above them exist.
func increasing(rng *rand.Rand, n int) []uint32 {
	vals := make([]uint32, n)
	v := uint32(1 + rng.Intn(4))
	for i := range vals {
		vals[i] = v
		v += uint32(1 + rng.Intn(5))
	}
	return vals
}

// findSeqs returns one cursor factory per representation findOrdered runs
// over: a tier-1 slice, every stream kind at several checkpoint spacings,
// and federated sequences of 1-4 stream segments.
func findSeqs(rng *rand.Rand, vals []uint32) map[string]func() core.Seq {
	w := &core.WET{}
	out := map[string]func() core.Seq{
		"tier1": func() core.Seq { return w.PatternSeq(&core.Group{Pattern: vals}, core.Tier1) },
	}
	for _, spec := range stream.Candidates {
		for _, k := range []int{-1, 0, 7, 64} {
			s := stream.CompressK(vals, spec, k)
			out[fmt.Sprintf("%s/k%d", spec, k)] = func() core.Seq { return s.NewCursor() }
		}
	}
	for parts := 1; parts <= 4; parts++ {
		g := &core.Group{}
		rest := vals
		for p := 0; p < parts; p++ {
			n := len(rest)
			if p < parts-1 {
				n = rng.Intn(len(rest) + 1) // empty segments included
			}
			spec := stream.Candidates[rng.Intn(len(stream.Candidates))]
			g.PatSegs = append(g.PatSegs, &core.LabelSeg{Epoch: p, N: n, S: stream.CompressK(rest[:n], spec, 16)})
			rest = rest[n:]
		}
		out[fmt.Sprintf("fed%d", parts)] = func() core.Seq { return w.PatternSeq(g, core.Tier2) }
	}
	return out
}

// TestFindOrderedMatchesNaive: whatever the representation, the order the
// targets come in and the end the cursor was born at, findOrdered returns the
// index a single-step scan finds and leaves the cursor where that scan would.
func TestFindOrderedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var buf [walkChunk]uint32
	for _, n := range []int{0, 1, 2, walkChunk - 1, walkChunk, walkChunk + 1, 3*walkChunk + 5, 1500} {
		vals := increasing(rng, n)
		// Every value from below the first to above the last: present and
		// absent targets alike.
		var all []uint32
		if n > 0 {
			for v := vals[0] - 1; v <= vals[n-1]+2; v++ {
				all = append(all, v)
			}
		} else {
			all = []uint32{0, 1, 7}
		}
		desc := slices.Clone(all)
		slices.Reverse(desc)
		mixed := slices.Clone(all)
		rng.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
		// Long jumps between neighbourhoods, the slicing worklist's pattern.
		var jumps []uint32
		for i := 0; i < 200 && n > 0; i++ {
			base := vals[rng.Intn(n)]
			jumps = append(jumps, base, base+1, base-1)
		}
		orders := map[string][]uint32{"ascending": all, "descending": desc, "mixed": mixed, "jumps": jumps}
		for name, mk := range findSeqs(rng, vals) {
			for order, targets := range orders {
				for _, bornAtEnd := range []bool{false, true} {
					s := mk()
					pos := 0
					if bornAtEnd {
						seqSeek(s, s.Len())
						pos = n
					}
					for _, target := range targets {
						wantIdx, wantPos := naiveFind(vals, pos, target)
						gotIdx := findOrdered(s, target, buf[:])
						if gotIdx != wantIdx || s.Pos() != wantPos {
							t.Fatalf("%s n=%d %s bornAtEnd=%v: findOrdered(%d) from %d = %d, cursor at %d; want %d, cursor at %d",
								name, n, order, bornAtEnd, target, pos, gotIdx, s.Pos(), wantIdx, wantPos)
						}
						pos = wantPos
					}
				}
			}
		}
	}
}
