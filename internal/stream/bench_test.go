package stream

import (
	"fmt"
	"math/rand"
	"testing"
)

// Benchmarks of the selection and encode kernels on the four stream shapes
// the WET builder emits, at a short, a medium and a full-probe length, for
// benchstat:
//
//	go test -run '^$' -bench 'BestSpec|CompressWinner' -count 10 ./internal/stream/

type builderShape struct {
	name string
	gen  func(n int) []uint32
}

// builderShapes returns generators for the builder's stream shapes.
func builderShapes() []builderShape {
	fill := func(n int, next func(i int) uint32) []uint32 {
		vals := make([]uint32, n)
		for i := range vals {
			vals[i] = next(i)
		}
		return vals
	}
	return []builderShape{
		// Node timestamps: increasing, a loop's few distinct gaps.
		{"timestamps", func(n int) []uint32 {
			rng := rand.New(rand.NewSource(1))
			gaps := []uint32{7, 7, 7, 19, 7, 7, 31}
			ts := uint32(1000)
			return fill(n, func(i int) uint32 {
				ts += gaps[i%len(gaps)]
				if rng.Intn(50) == 0 {
					ts += uint32(rng.Intn(4000))
				}
				return ts
			})
		}},
		// Group patterns: small indices into the unique-value table, mostly
		// in order with repeats.
		{"patterns", func(n int) []uint32 {
			rng := rand.New(rand.NewSource(2))
			return fill(n, func(i int) uint32 {
				if rng.Intn(4) == 0 {
					return uint32(rng.Intn(i/8 + 1))
				}
				return uint32(i / 8)
			})
		}},
		// Unique values: wide, few repeats.
		{"uniques", func(n int) []uint32 {
			rng := rand.New(rand.NewSource(3))
			return fill(n, func(int) uint32 { return rng.Uint32() >> uint(rng.Intn(16)) })
		}},
		// Edge-label halves: ordinals, consecutive with occasional skips.
		{"edge-halves", func(n int) []uint32 {
			rng := rand.New(rand.NewSource(4))
			ord := uint32(0)
			return fill(n, func(int) uint32 {
				ord++
				if rng.Intn(10) == 0 {
					ord += uint32(rng.Intn(6))
				}
				return ord
			})
		}},
	}
}

func benchShapes(b *testing.B, run func(b *testing.B, vals []uint32)) {
	for _, sh := range builderShapes() {
		for _, n := range []int{48, 500, SelectionPrefix} {
			vals := sh.gen(n)
			b.Run(fmt.Sprintf("%s/%d", sh.name, n), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(4 * n))
				run(b, vals)
			})
		}
	}
}

var benchSink int

func BenchmarkBestSpec(b *testing.B) {
	sc := NewScratch()
	benchShapes(b, func(b *testing.B, vals []uint32) {
		for i := 0; i < b.N; i++ {
			benchSink += BestSpec(vals, sc).Order
		}
	})
}

// BenchmarkCompressWinner encodes each shape with the method selection
// picks for it.
func BenchmarkCompressWinner(b *testing.B) {
	sc := NewScratch()
	benchShapes(b, func(b *testing.B, vals []uint32) {
		spec := BestSpec(vals, sc)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink += Compress(vals, spec).Len()
		}
	})
}
