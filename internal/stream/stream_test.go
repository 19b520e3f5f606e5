package stream

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// datasets returns named value streams with different predictability
// profiles, mirroring the stream shapes WET produces.
// SeekStart rewinds c to position 0.
func SeekStart(c Cursor) { c.Seek(0) }

// SeekEnd advances c to position Len.
func SeekEnd(c Cursor) { c.Seek(c.Len()) }

// SeekTo positions the cursor at p.
func SeekTo(c Cursor, p int) { c.Seek(p) }

func datasets() map[string][]uint32 {
	rng := rand.New(rand.NewSource(7))
	d := map[string][]uint32{}

	constant := make([]uint32, 3000)
	for i := range constant {
		constant[i] = 42
	}
	d["constant"] = constant

	strided := make([]uint32, 3000)
	for i := range strided {
		strided[i] = uint32(100 + 7*i)
	}
	d["strided"] = strided

	periodic := make([]uint32, 3000)
	pat := []uint32{3, 1, 4, 1, 5, 9, 2, 6}
	for i := range periodic {
		periodic[i] = pat[i%len(pat)]
	}
	d["periodic"] = periodic

	random := make([]uint32, 3000)
	for i := range random {
		random[i] = rng.Uint32()
	}
	d["random"] = random

	fewvals := make([]uint32, 3000)
	for i := range fewvals {
		fewvals[i] = uint32(rng.Intn(3)) * 1000
	}
	d["fewvals"] = fewvals

	d["empty"] = nil
	d["single"] = []uint32{99}
	d["short"] = []uint32{5, 5, 5}
	return d
}

func allSpecs() []Spec { return Candidates }

func TestRoundTripAllMethodsAllDatasets(t *testing.T) {
	for name, vals := range datasets() {
		for _, spec := range allSpecs() {
			s := Compress(vals, spec)
			if s.Len() != len(vals) {
				t.Fatalf("%s/%s: Len = %d, want %d", name, spec, s.Len(), len(vals))
			}
			got := drain(s)
			for i := range vals {
				if got[i] != vals[i] {
					t.Fatalf("%s/%s: value %d = %d, want %d", name, spec, i, got[i], vals[i])
				}
			}
		}
	}
}

func TestBackwardTraversalMatches(t *testing.T) {
	for name, vals := range datasets() {
		for _, spec := range allSpecs() {
			c := Compress(vals, spec).NewCursor()
			SeekEnd(c)
			for i := len(vals) - 1; i >= 0; i-- {
				got := c.Prev()
				if got != vals[i] {
					t.Fatalf("%s/%s: backward value %d = %d, want %d", name, spec, i, got, vals[i])
				}
			}
			if c.Pos() != 0 {
				t.Fatalf("%s/%s: Pos after full rewind = %d", name, spec, c.Pos())
			}
		}
	}
}

// TestRandomWalkStateIndependence drives a cursor in a random walk and
// checks every step's value against the raw stream — this exercises the
// paper's key claim that the sequence of states is direction independent.
func TestRandomWalkStateIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for name, vals := range datasets() {
		if len(vals) == 0 {
			continue
		}
		for _, spec := range allSpecs() {
			c := Compress(vals, spec).NewCursor()
			pos := 0
			for step := 0; step < 2000; step++ {
				fwd := rng.Intn(2) == 0
				if pos == 0 {
					fwd = true
				}
				if pos == len(vals) {
					fwd = false
				}
				if fwd {
					got := c.Next()
					if got != vals[pos] {
						t.Fatalf("%s/%s: step %d fwd at %d = %d, want %d", name, spec, step, pos, got, vals[pos])
					}
					pos++
				} else {
					got := c.Prev()
					pos--
					if got != vals[pos] {
						t.Fatalf("%s/%s: step %d bwd at %d = %d, want %d", name, spec, step, pos, got, vals[pos])
					}
				}
				if c.Pos() != pos {
					t.Fatalf("%s/%s: Pos = %d, want %d", name, spec, c.Pos(), pos)
				}
			}
		}
	}
}

// TestSeekMatchesLinearWalk is the checkpointed-access property test: for
// every method/spec combination, a cursor that Seeks to a random position
// must read exactly what a pure linear walk from position 0 reads — and a
// second untouched cursor must stay byte-identical in behaviour (seeking
// must not leak state between cursors). One case per checkpointed family
// is required to have an interior checkpoint to restore: last-n on an
// input longer than DefaultCheckpointK, FCM on one long enough that its
// table stops growing (past 2^20 values).
func TestSeekMatchesLinearWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	check := func(name string, vals []uint32, spec Spec, trials int) {
		s := Compress(vals, spec)
		seeker := s.NewCursor()
		linear := s.NewCursor()
		for trial := 0; trial < trials; trial++ {
			i := rng.Intn(len(vals))
			seeker.Seek(i)
			if seeker.Pos() != i {
				t.Fatalf("%s/%s: Seek(%d) left Pos=%d", name, spec, i, seeker.Pos())
			}
			if got := seeker.Next(); got != vals[i] {
				t.Fatalf("%s/%s: Seek(%d)+Next = %d, want %d", name, spec, i, got, vals[i])
			}
			// The linear cursor only ever steps.
			for linear.Pos() > i {
				linear.Prev()
			}
			for linear.Pos() < i {
				linear.Next()
			}
			if got := linear.Next(); got != vals[i] {
				t.Fatalf("%s/%s: linear walk at %d = %d, want %d", name, spec, i, got, vals[i])
			}
		}
	}
	for name, vals := range datasets() {
		if len(vals) == 0 {
			continue
		}
		for _, spec := range allSpecs() {
			check(name, vals, spec, 40)
		}
	}
	long := make([]uint32, 1<<21)
	for i := range long {
		long[i] = uint32(rng.Intn(64))
	}
	for _, c := range []struct {
		name string
		vals []uint32
		spec Spec
	}{
		{"periodic", datasets()["periodic"], Spec{KindLastN, 4}},
		{"long", long, Spec{KindFCM, 1}},
	} {
		cks := checkpointsOf(Compress(c.vals, c.spec))
		if !slices.ContainsFunc(cks, func(p int) bool { return p > 0 && p < len(c.vals) }) {
			t.Fatalf("%s/%s: checkpoints at %v, none interior", c.name, c.spec, cks)
		}
		check(c.name, c.vals, c.spec, 8)
	}
}

// TestCursorsShareNothing runs many cursors over one stream concurrently
// under -race: an immutable stream plus detached cursors must be safe with
// zero synchronization.
func TestCursorsShareNothing(t *testing.T) {
	vals := datasets()["periodic"]
	for _, spec := range allSpecs() {
		s := Compress(vals, spec)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				c := s.NewCursor()
				for trial := 0; trial < 50; trial++ {
					i := rng.Intn(len(vals))
					c.Seek(i)
					if got := c.Next(); got != vals[i] {
						t.Errorf("%s: goroutine %d read %d at %d, want %d", spec, g, got, i, vals[i])
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestQuickRoundTrip property-tests round-tripping over random streams for
// every method.
func TestQuickRoundTrip(t *testing.T) {
	for _, spec := range allSpecs() {
		spec := spec
		f := func(vals []uint32) bool {
			if len(vals) > 500 {
				vals = vals[:500]
			}
			s := Compress(vals, spec)
			got := drain(s)
			if len(got) != len(vals) {
				return false
			}
			for i := range vals {
				if got[i] != vals[i] {
					return false
				}
			}
			// And backward.
			c := s.NewCursor()
			SeekEnd(c)
			for i := len(vals) - 1; i >= 0; i-- {
				if c.Prev() != vals[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
	}
}

func TestCompressionEffectiveness(t *testing.T) {
	d := datasets()
	raw := func(vals []uint32) uint64 { return uint64(len(vals)) * 32 }

	// FCM must crush a constant stream.
	s := Compress(d["constant"], Spec{KindFCM, 2})
	if s.SizeBits() > raw(d["constant"])/4 {
		t.Fatalf("fcm2 on constant: %d bits vs raw %d", s.SizeBits(), raw(d["constant"]))
	}
	// dFCM must crush a strided stream; plain FCM must not.
	sd := Compress(d["strided"], Spec{KindDFCM, 1})
	if sd.SizeBits() > raw(d["strided"])/4 {
		t.Fatalf("dfcm1 on strided: %d bits vs raw %d", sd.SizeBits(), raw(d["strided"]))
	}
	sf := Compress(d["strided"], Spec{KindFCM, 2})
	if sf.SizeBits() < sd.SizeBits() {
		t.Fatalf("fcm2 (%d bits) beat dfcm1 (%d bits) on a strided stream", sf.SizeBits(), sd.SizeBits())
	}
	// last-n must do well on a small working set of values.
	sl := Compress(d["fewvals"], Spec{KindLastN, 4})
	if sl.SizeBits() > raw(d["fewvals"])/3 {
		t.Fatalf("last4 on fewvals: %d bits vs raw %d", sl.SizeBits(), raw(d["fewvals"]))
	}
	// Periodic streams are FCM's home turf.
	sp := Compress(d["periodic"], Spec{KindFCM, 3})
	if sp.SizeBits() > raw(d["periodic"])/4 {
		t.Fatalf("fcm3 on periodic: %d bits vs raw %d", sp.SizeBits(), raw(d["periodic"]))
	}
}

func TestCompressBestPicksSensibly(t *testing.T) {
	d := datasets()
	for name, vals := range d {
		s := CompressBest(vals)
		got := drain(s)
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("CompressBest(%s) corrupted value %d", name, i)
			}
		}
	}
	// On a strided stream the winner must be stride-aware or at least beat
	// verbatim decisively.
	s := CompressBest(d["strided"])
	if s.SizeBits() > uint64(len(d["strided"]))*32/2 {
		t.Fatalf("CompressBest(strided) picked %s with %d bits", s.Name(), s.SizeBits())
	}
	// On pure noise, selection must not blow up the stream badly: the pick
	// must stay within ~36/32 of raw (a 1-bit-per-value penalty plus tables).
	s = CompressBest(d["random"])
	if s.SizeBits() > uint64(len(d["random"]))*40 {
		t.Fatalf("CompressBest(random) = %s, %d bits for %d values", s.Name(), s.SizeBits(), len(d["random"]))
	}
}

func TestSeekToAndAt(t *testing.T) {
	vals := datasets()["periodic"]
	s := Compress(vals, Spec{KindFCM, 2})
	for _, i := range []int{0, 1, 17, 1000, 2999, 5, 2998} {
		if got := At(s, i); got != vals[i] {
			t.Fatalf("At(%d) = %d, want %d", i, got, vals[i])
		}
	}
	c := s.NewCursor()
	SeekTo(c, 100)
	if c.Pos() != 100 {
		t.Fatalf("Pos = %d, want 100", c.Pos())
	}
}

func TestEdgePanics(t *testing.T) {
	c := Compress([]uint32{1, 2}, Spec{KindFCM, 1}).NewCursor()
	SeekStart(c)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Prev at start did not panic")
			}
		}()
		c.Prev()
	}()
	SeekEnd(c)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Next at end did not panic")
			}
		}()
		c.Next()
	}()
}

func TestBitstack(t *testing.T) {
	var b bitstack
	b.pushBits(0xDEADBEEF, 32)
	b.pushBit(true)
	b.pushBits(5, 3)
	b.pushBit(false)
	if b.popBit() {
		t.Fatal("top bit should be false")
	}
	if got := b.popBits(3); got != 5 {
		t.Fatalf("popBits(3) = %d, want 5", got)
	}
	if !b.popBit() {
		t.Fatal("next bit should be true")
	}
	if got := b.popBits(32); got != 0xDEADBEEF {
		t.Fatalf("popBits(32) = %#x", got)
	}
	if !b.empty() {
		t.Fatalf("stack not empty: %d bits", b.bits())
	}
}

func TestBitstackQuick(t *testing.T) {
	f := func(ops []uint16) bool {
		var b bitstack
		type rec struct {
			v uint32
			k uint
		}
		var pushed []rec
		for _, op := range ops {
			k := uint(op%32) + 1
			v := uint32(op) & (1<<k - 1)
			b.pushBits(v, k)
			pushed = append(pushed, rec{v, k})
		}
		for i := len(pushed) - 1; i >= 0; i-- {
			if got := b.popBits(pushed[i].k); got != pushed[i].v {
				return false
			}
		}
		return b.empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBitvecMatchesBitstack pins the read-only store to the mutable stack:
// freezing a stack and reading entries by absolute offset must reproduce
// what popping returns.
func TestBitvecMatchesBitstack(t *testing.T) {
	var b bitstack
	vals := []uint32{0xDEADBEEF, 5, 1, 0, 0xFFFFFFFF, 1234567}
	widths := []uint{32, 3, 1, 2, 32, 21}
	for i := range vals {
		b.pushBits(vals[i], widths[i])
	}
	v := b.freeze()
	end := v.n
	for i := len(vals) - 1; i >= 0; i-- {
		if got := v.top(end, widths[i]); got != vals[i] {
			t.Fatalf("top at %d = %#x, want %#x", i, got, vals[i])
		}
		end -= uint64(widths[i])
	}
	if end != 0 {
		t.Fatalf("residual bits: %d", end)
	}
}

func TestVerbatimSize(t *testing.T) {
	s := Compress([]uint32{1, 2, 3}, Spec{KindVerbatim, 0})
	if s.SizeBits() != 3*32+HeaderBits {
		t.Fatalf("verbatim size = %d", s.SizeBits())
	}
}

func TestTableBitsScaling(t *testing.T) {
	if tableBits(10) != 4 {
		t.Fatalf("tableBits(10) = %d", tableBits(10))
	}
	if tableBits(1<<20) != 16 {
		t.Fatalf("tableBits(1M) = %d", tableBits(1<<20))
	}
	if b := tableBits(1000); b < 4 || b > 16 {
		t.Fatalf("tableBits(1000) = %d", b)
	}
}

func BenchmarkFCMForward(b *testing.B) {
	vals := make([]uint32, 1<<16)
	for i := range vals {
		vals[i] = uint32(i % 257)
	}
	c := Compress(vals, Spec{KindFCM, 2}).NewCursor()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Pos() == c.Len() {
			c.Seek(0)
		}
		c.Next()
	}
}

func BenchmarkLastNForward(b *testing.B) {
	vals := make([]uint32, 1<<16)
	for i := range vals {
		vals[i] = uint32(i % 7)
	}
	c := Compress(vals, Spec{KindLastN, 4}).NewCursor()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Pos() == c.Len() {
			c.Seek(0)
		}
		c.Next()
	}
}

func BenchmarkSeekCheckpointed(b *testing.B) {
	vals := make([]uint32, 1<<16)
	for i := range vals {
		vals[i] = uint32(i % 257)
	}
	s := Compress(vals, Spec{KindFCM, 2})
	c := s.NewCursor()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Seek(rng.Intn(len(vals)))
	}
}

// drain returns all values of s in order, through one whole-stream NextN.
func drain(s Stream) []uint32 {
	out := make([]uint32, s.Len())
	s.NewCursor().NextN(out)
	return out
}
