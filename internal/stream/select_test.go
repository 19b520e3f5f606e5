package stream

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The selection kernel (selectBest and the fused sizers) must be exact: for
// every input, each fused size equals the single-spec sizer's and BestSpec
// equals a candidate-by-candidate argmin over real streams.

// checkSelection is the property both the table test and the fuzzer assert.
func checkSelection(t *testing.T, vals []uint32, sc *Scratch) {
	t.Helper()
	probe := vals[:min(len(vals), SelectionPrefix)]
	plain, ok1 := sizeLastNAll(probe, false, math.MaxUint64)
	strided, ok2 := sizeLastNAll(probe, true, math.MaxUint64)
	if !ok1 || !ok2 {
		t.Fatalf("n=%d: a last-n pass gave up without a limit", len(probe))
	}
	fcm := sc.sizeFCMAll(probe)
	// In Candidates order from candFCM on.
	fused := append(append(fcm[:], plain[:]...), strided[:]...)
	if candFCM+len(fused) != len(Candidates) {
		t.Fatalf("fused sizers cover %d candidates, Candidates has %d predictors", len(fused), len(Candidates)-candFCM)
	}
	for k, got := range fused {
		spec := Candidates[candFCM+k]
		if want := SizeSpec(probe, spec, sc); got != want {
			t.Errorf("n=%d %s: fused size %d, SizeSpec %d", len(probe), spec, got, want)
		}
	}
	if got, want := BestSpec(vals, sc), referenceBestSpec(vals); got != want {
		t.Errorf("n=%d: BestSpec=%v, reference=%v", len(vals), got, want)
	}
	if sc.fcm != ([6][1 << selTableBits]uint32{}) {
		t.Fatalf("n=%d: selection tables not zeroed", len(vals))
	}
}

// fcmLastNTie is a stream on which fcm1 and last2 cost the same number of
// bits and nothing costs less, so the first-index rule alone picks fcm1 —
// after last2 has already been offered as the running winner. 45 values
// cycling through 13 (FCM learns the cycle, every last-n table misses it),
// then 97 repeats of one value (1 bit each for FCM, 2 for last2) until
// last2's smaller fixed cost is used up exactly.
func fcmLastNTie() []uint32 {
	cycle := []uint32{
		0xc3da9955, 0x8d2e51b8, 0x9e754db1, 0x9d40d6d1, 0xed7acb9d, 0xecccd605, 0xb4c68709,
		0xb6427cee, 0xa07c51f0, 0x9ea9c6dc, 0xdcbae486, 0xde5f5e02, 0xe159b481,
	}
	vals := make([]uint32, 45+97)
	for i := range vals {
		vals[i] = cycle[min(i, 45)%len(cycle)]
	}
	return vals
}

// selectionSeeds are the inputs the exactness argument is most likely to
// break on, by name.
func selectionSeeds() map[string][]uint32 {
	rng := rand.New(rand.NewSource(15))
	seeds := map[string][]uint32{}
	gens := map[string]func(i int) uint32{
		"wide":     func(int) uint32 { return rng.Uint32() },
		"small":    func(int) uint32 { return uint32(rng.Intn(12)) },
		"stride":   func(i int) uint32 { return uint32(100 + 3*i) },
		"periodic": func(i int) uint32 { return 1<<30 + uint32(i%5)*77777 },
		"two":      func(i int) uint32 { return uint32(rng.Intn(2)) * 0xdeadbeef },
		"zero":     func(int) uint32 { return 0 }, // duplicate zeros in the MTF start state
		// Strides that wrap uint32, up and down.
		"wrap-up":   func(i int) uint32 { return uint32(i) * 0x9e3779b1 },
		"wrap-down": func(i int) uint32 { return 5 - uint32(i)*0x40000001 },
	}
	// 34/35: where verbatim stops beating the FCM floor. 256/257 and
	// 4096/4097: tableBits and SelectionPrefix edges.
	for _, n := range []int{0, 1, 2, 34, 35, 256, 257, SelectionPrefix, SelectionPrefix + 1} {
		for name, gen := range gens {
			vals := make([]uint32, n)
			for i := range vals {
				vals[i] = gen(i)
			}
			seeds[fmt.Sprintf("%s-%d", name, n)] = vals
		}
	}
	// packed12 at 96 values costs exactly the FCM floor: skipped on equality.
	floorTie := make([]uint32, 96)
	for i := range floorTie {
		floorTie[i] = 1<<11 | uint32(rng.Intn(1<<11))
	}
	seeds["packed-equals-fcm-floor"] = floorTie
	seeds["fcm-lastn-tie"] = fcmLastNTie()
	for name, vals := range testShapes() {
		seeds["shape-"+name] = vals
	}
	for name, vals := range datasets() {
		seeds["dataset-"+name] = vals
	}
	return seeds
}

func TestSelectionExact(t *testing.T) {
	sc := NewScratch()
	defer sc.Release()
	for name, vals := range selectionSeeds() {
		t.Run(name, func(t *testing.T) { checkSelection(t, vals, sc) })
	}
}

// TestSelectionTableFits pins the fixed selection tables to the longest
// probe BestSpec can pass.
func TestSelectionTableFits(t *testing.T) {
	if got := tableBits(SelectionPrefix); got != selTableBits {
		t.Fatalf("tableBits(SelectionPrefix)=%d, selTableBits=%d", got, selTableBits)
	}
}

// TestSelectionTieGoesToLowerIndex checks the constructed tie really ties
// and that the FCM pass, run after last-n is sized, still takes it.
func TestSelectionTieGoesToLowerIndex(t *testing.T) {
	sc := NewScratch()
	vals := fcmLastNTie()
	fcm1, last2 := Spec{KindFCM, 1}, Spec{KindLastN, 2}
	a, b := SizeSpec(vals, fcm1, sc), SizeSpec(vals, last2, sc)
	if a != b {
		t.Fatalf("not a tie: fcm1=%d bits, last2=%d bits", a, b)
	}
	for _, spec := range Candidates {
		if spec != fcm1 && spec != last2 && SizeSpec(vals, spec, sc) <= a {
			t.Fatalf("%s costs %d bits, not above the tie at %d", spec, SizeSpec(vals, spec, sc), a)
		}
	}
	if got := BestSpec(vals, sc); got != fcm1 {
		t.Fatalf("BestSpec=%v on an fcm1/last2 tie, want fcm1", got)
	}

	// The skip rule's own tie cases: a lower-index winner holds a tie, a
	// higher-index one yields it.
	if !(pick{1, 100}).beats(candFCM, 100) || (pick{candLastN, 100}).beats(candFCM, 100) {
		t.Fatal("pick.beats does not break ties by Candidates index")
	}
}

// TestSelectionAllocFree: a warmed Scratch selects without allocating, and
// selects the same after Release.
func TestSelectionAllocFree(t *testing.T) {
	sc := NewScratch()
	seeds := selectionSeeds()
	want := map[string]Spec{}
	for name, vals := range seeds {
		want[name] = BestSpec(vals, sc)
	}
	for name, vals := range seeds {
		if n := testing.AllocsPerRun(5, func() { BestSpec(vals, sc) }); n != 0 {
			t.Errorf("%s: BestSpec allocates %v times per call on a warmed Scratch", name, n)
		}
	}
	sc.Release()
	for name, vals := range seeds {
		if got := BestSpec(vals, sc); got != want[name] {
			t.Errorf("%s: BestSpec=%v after Release, %v before", name, got, want[name])
		}
	}
}

// fuzzVals reads fuzz bytes as a value stream. The first byte picks the
// reading, so the mutator reaches long low-entropy streams — where the
// predictors win and ties happen — as easily as raw words.
func fuzzVals(data []byte) []uint32 {
	if len(data) == 0 {
		return nil
	}
	mode, body := data[0]%3, data[1:]
	if mode == 0 { // little-endian words
		vals := make([]uint32, len(body)/4)
		for i := range vals {
			vals[i] = binary.LittleEndian.Uint32(body[4*i:])
		}
		return vals
	}
	vals := make([]uint32, len(body))
	var sum uint32
	for i, b := range body {
		if mode == 1 { // small alphabet
			vals[i] = uint32(b)
		} else { // running sum of large strides, wraps often
			sum += uint32(b) << 24 >> (b % 25)
			vals[i] = sum
		}
	}
	return vals
}

func FuzzBestSpec(f *testing.F) {
	for _, vals := range selectionSeeds() {
		seed := make([]byte, 1, 1+4*len(vals))
		for _, v := range vals {
			seed = binary.LittleEndian.AppendUint32(seed, v)
		}
		f.Add(seed)
	}
	f.Add([]byte{1, 0, 0, 7, 0, 7, 7, 0})
	f.Add([]byte{2, 1, 1, 1, 200, 1, 1, 1})
	sc := NewScratch()
	f.Fuzz(func(t *testing.T, data []byte) { checkSelection(t, fuzzVals(data), sc) })
}
