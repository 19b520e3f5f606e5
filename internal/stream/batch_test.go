package stream

import (
	"math/rand"
	"testing"
)

// TestNextNPrevNMatchSingleStep drives every spec over every dataset with a
// random walk of batched reads — random-size NextN/PrevN interleaved with
// seeks — and checks each batch against the known values, position by
// position. This pins the batched inner loops to the single-step contract
// the compressors define.
func TestNextNPrevNMatchSingleStep(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for name, vals := range datasets() {
		for _, spec := range allSpecs() {
			c := Compress(vals, spec).NewCursor()
			buf := make([]uint32, 97)
			for step := 0; step < 200; step++ {
				switch op := rng.Intn(5); {
				case op == 0:
					c.Seek(rng.Intn(len(vals) + 1))
				case op <= 2:
					n := rng.Intn(len(buf)) + 1
					pos := c.Pos()
					got := c.NextN(buf[:n])
					want := len(vals) - pos
					if want > n {
						want = n
					}
					if got != want {
						t.Fatalf("%s/%s: NextN(%d) at %d = %d, want %d", name, spec, n, pos, got, want)
					}
					for i := 0; i < got; i++ {
						if buf[i] != vals[pos+i] {
							t.Fatalf("%s/%s: NextN value %d = %d, want %d", name, spec, pos+i, buf[i], vals[pos+i])
						}
					}
					if c.Pos() != pos+got {
						t.Fatalf("%s/%s: NextN left pos %d, want %d", name, spec, c.Pos(), pos+got)
					}
				default:
					n := rng.Intn(len(buf)) + 1
					pos := c.Pos()
					got := c.PrevN(buf[:n])
					want := pos
					if want > n {
						want = n
					}
					if got != want {
						t.Fatalf("%s/%s: PrevN(%d) at %d = %d, want %d", name, spec, n, pos, got, want)
					}
					for i := 0; i < got; i++ {
						if buf[i] != vals[pos-1-i] {
							t.Fatalf("%s/%s: PrevN value %d = %d, want %d", name, spec, pos-1-i, buf[i], vals[pos-1-i])
						}
					}
					if c.Pos() != pos-got {
						t.Fatalf("%s/%s: PrevN left pos %d, want %d", name, spec, c.Pos(), pos-got)
					}
				}
			}
			// A batched walk must leave the cursor stepable: finish with a
			// single-step pass from wherever the walk ended.
			for c.Pos() > 0 {
				c.Prev()
			}
			for i := range vals {
				if got := c.Next(); got != vals[i] {
					t.Fatalf("%s/%s: post-walk single step %d = %d, want %d", name, spec, i, got, vals[i])
				}
			}
		}
	}
}

// TestNextNPrevNWholeStream checks the two full-length batch shapes drain
// and the tier-1 materializer rely on: one NextN covering the whole stream,
// then one PrevN covering it back.
func TestNextNPrevNWholeStream(t *testing.T) {
	for name, vals := range datasets() {
		for _, spec := range allSpecs() {
			c := Compress(vals, spec).NewCursor()
			fwd := make([]uint32, len(vals))
			if got := c.NextN(fwd); got != len(vals) {
				t.Fatalf("%s/%s: whole-stream NextN = %d, want %d", name, spec, got, len(vals))
			}
			bwd := make([]uint32, len(vals))
			if got := c.PrevN(bwd); got != len(vals) {
				t.Fatalf("%s/%s: whole-stream PrevN = %d, want %d", name, spec, got, len(vals))
			}
			for i := range vals {
				if fwd[i] != vals[i] {
					t.Fatalf("%s/%s: forward value %d = %d, want %d", name, spec, i, fwd[i], vals[i])
				}
				if bwd[i] != vals[len(vals)-1-i] {
					t.Fatalf("%s/%s: backward value %d = %d, want %d", name, spec, i, bwd[i], vals[len(vals)-1-i])
				}
			}
		}
	}
}
