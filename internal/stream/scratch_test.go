package stream

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// testShapes covers the stream shapes the freezer actually sees: empty,
// tiny, constant, strided, low-cardinality repeating, noisy, and longer
// than the selection prefix.
func testShapes() map[string][]uint32 {
	rng := rand.New(rand.NewSource(7))
	shapes := map[string][]uint32{
		"empty":  nil,
		"single": {42},
		"pair":   {7, 7},
	}
	constant := make([]uint32, 300)
	for i := range constant {
		constant[i] = 9
	}
	shapes["constant"] = constant
	stride := make([]uint32, 500)
	for i := range stride {
		stride[i] = uint32(100 + 3*i)
	}
	shapes["stride"] = stride
	repeating := make([]uint32, 700)
	for i := range repeating {
		repeating[i] = uint32(i % 5)
	}
	shapes["repeating"] = repeating
	noisy := make([]uint32, 400)
	for i := range noisy {
		noisy[i] = rng.Uint32()
	}
	shapes["noisy"] = noisy
	small := make([]uint32, 350)
	for i := range small {
		small[i] = uint32(rng.Intn(12))
	}
	shapes["small-random"] = small
	long := make([]uint32, SelectionPrefix+2000)
	for i := range long {
		long[i] = uint32(i%17) * 11
	}
	shapes["longer-than-prefix"] = long
	return shapes
}

// TestSizeSpecMatchesConstruction pins the dry-run sizers to the real
// constructors: SizeSpec must equal SizeBits of the built stream for every
// candidate on every shape. This is the invariant that makes the pooled
// selection phase byte-equivalent to the old build-and-discard one.
func TestSizeSpecMatchesConstruction(t *testing.T) {
	sc := NewScratch()
	defer sc.Release()
	for name, vals := range testShapes() {
		for _, spec := range Candidates {
			got := SizeSpec(vals, spec, sc)
			want := Compress(vals, spec).SizeBits()
			if got != want {
				t.Errorf("%s/%s: SizeSpec=%d, constructed SizeBits=%d", name, spec, got, want)
			}
			// Sizing twice must agree: the scratch tables were re-zeroed.
			if again := SizeSpec(vals, spec, sc); again != got {
				t.Errorf("%s/%s: SizeSpec not reproducible with reused scratch: %d then %d", name, spec, got, again)
			}
		}
	}
}

// referenceBestSpec is the pre-pooling selection: build every candidate on
// the prefix and keep the smallest.
func referenceBestSpec(vals []uint32) Spec {
	probe := vals
	if len(probe) > SelectionPrefix {
		probe = vals[:SelectionPrefix]
	}
	best := Candidates[0]
	var bestBits uint64
	for i, spec := range Candidates {
		s := Compress(probe, spec)
		if i == 0 || s.SizeBits() < bestBits {
			best, bestBits = spec, s.SizeBits()
		}
	}
	return best
}

func TestBestSpecMatchesReferenceSelection(t *testing.T) {
	sc := NewScratch()
	defer sc.Release()
	for name, vals := range testShapes() {
		if len(vals) == 0 {
			continue
		}
		got := BestSpec(vals, sc)
		want := referenceBestSpec(vals)
		if got != want {
			t.Errorf("%s: BestSpec=%v, reference=%v", name, got, want)
		}
	}
}

// TestSizeBestMatchesCompressBest checks the sizing-only path reports the
// same size and Methods key as actually compressing.
func TestSizeBestMatchesCompressBest(t *testing.T) {
	sc := NewScratch()
	defer sc.Release()
	for name, vals := range testShapes() {
		sz, method := SizeBest(vals, sc)
		s := CompressBest(vals)
		if sz != s.SizeBits() {
			t.Errorf("%s: SizeBest=%d bits, CompressBest=%d bits", name, sz, s.SizeBits())
		}
		if method != s.Name() {
			t.Errorf("%s: SizeBest name %q, CompressBest name %q", name, method, s.Name())
		}
	}
}

// TestCompressBestConcurrent hammers the scratch path from many goroutines,
// each releasing and reusing its Scratch between rounds: every result must
// match a serially computed baseline, and the selection tables inside the
// Scratch must come back zeroed after every call, as the pooled ones do.
func TestCompressBestConcurrent(t *testing.T) {
	shapes := testShapes()
	shapes["fcm-wins"] = fcmLastNTie() // the fused FCM pass runs and decides
	type want struct {
		bits uint64
		name string
	}
	baseline := map[string]want{}
	for name, vals := range shapes {
		s := CompressBest(vals)
		baseline[name] = want{s.SizeBits(), s.Name()}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := NewScratch()
			for round := 0; round < 5; round++ {
				for name, vals := range shapes {
					s := CompressBestScratch(vals, sc)
					w := baseline[name]
					if s.SizeBits() != w.bits || s.Name() != w.name {
						report(fmt.Errorf("%s: got %s/%d bits, want %s/%d bits",
							name, s.Name(), s.SizeBits(), w.name, w.bits))
					}
					if sc.fcm != ([6][1 << selTableBits]uint32{}) {
						report(fmt.Errorf("%s: selection tables not zeroed", name))
					}
				}
				sc.Release()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
