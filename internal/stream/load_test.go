package stream

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"wet/internal/wire"
)

// The two-pass normalisers Load used before it decoded once: walk the loaded
// encoder to the start, forward to the end through the encoder's own decode
// step, then let finish walk back rebuilding BL and capturing checkpoints.
// They are the reference the one-pass load is compared against.

func (e *lastNEnc) refNext() uint32 {
	if e.pos >= e.m {
		panic("stream: Next past end")
	}
	var x uint32
	if e.bl.popBit() {
		x = e.tb[e.bl.popBits(e.idxBits)]
	} else {
		x = e.bl.popBits(32)
	}
	v := x
	if e.stride {
		v = e.lastVal + x
		e.lastVal = v
	}
	e.encode(x)
	e.pos++
	return v
}

func refNormalizeLastN(e *lastNEnc) (*lastNStream, error) {
	for e.pos > 0 {
		e.prev()
	}
	if !e.fr.empty() {
		return nil, fmt.Errorf("stream: last-n FR store holds %d bits beyond the cursor", e.fr.bits())
	}
	for e.pos < e.m {
		e.refNext()
	}
	if !e.bl.empty() {
		return nil, fmt.Errorf("stream: last-n BL store holds %d bits beyond the stream", e.bl.bits())
	}
	return e.finish(), nil
}

func (e *fcmEnc) refNext() uint32 {
	if e.pos >= e.m {
		panic("stream: Next past end")
	}
	idx := e.hash()
	miss := !e.bl.popBit()
	var payload uint32
	if miss {
		payload = e.bl.popBits(32)
	}
	v := fcmPredictIncoming(e.win, e.stride, e.bltb[idx])
	if miss {
		e.bltb[idx] = payload
	}
	e.push(v)
	return v
}

func refNormalizeFCM(e *fcmEnc) (*fcmStream, error) {
	for e.pos > 0 {
		e.prev()
	}
	if !e.fr.empty() {
		return nil, fmt.Errorf("stream: fcm FR store holds %d bits beyond the cursor", e.fr.bits())
	}
	for e.pos < e.m {
		e.refNext()
	}
	if !e.bl.empty() {
		return nil, fmt.Errorf("stream: fcm BL store holds %d bits beyond the stream", e.bl.bits())
	}
	return e.finish(), nil
}

// refLoad is Load through the two-pass normalisers, under Load's recover
// boundary. Verbatim and packed streams have no normalisation and return
// (nil, nil).
func refLoad(data []byte) (s Stream, err error) {
	defer func() {
		if p := recover(); p != nil {
			s, err = nil, fmt.Errorf("stream: corrupt stream state: %v", p)
		}
	}()
	if len(data) == 0 {
		return nil, fmt.Errorf("stream: empty input")
	}
	d := wire.NewDec(data[1:])
	switch kind := Kind(data[0]); kind {
	case KindFCM, KindDFCM:
		e, _, err := readFCMState(d, kind)
		if err != nil {
			return nil, err
		}
		return refNormalizeFCM(&e)
	case KindLastN, KindLastNStride:
		e, _, err := readLastNState(d, kind)
		if err != nil {
			return nil, err
		}
		return refNormalizeLastN(&e)
	}
	return nil, nil
}

func diffBitvec(name string, a, b bitvec) error {
	if a.n != b.n || !slices.Equal(a.words, b.words) {
		return fmt.Errorf("%s: %d bits %x, want %d bits %x", name, a.n, a.words, b.n, b.words)
	}
	return nil
}

// diffStreams compares two predictor-backed or packed streams field by
// field; nil and empty slices are the same table.
func diffStreams(got, want Stream) error {
	switch w := want.(type) {
	case *packed:
		g, ok := got.(*packed)
		if !ok {
			return fmt.Errorf("got %T, want %T", got, want)
		}
		if g.m != w.m || g.width != w.width {
			return fmt.Errorf("shape (%d,%d), want (%d,%d)", g.m, g.width, w.m, w.width)
		}
		if !bytes.Equal(g.data, w.data) {
			return fmt.Errorf("data %x, want %x", g.data, w.data)
		}
		return nil
	case *lastNStream:
		g, ok := got.(*lastNStream)
		if !ok {
			return fmt.Errorf("got %T, want %T", got, want)
		}
		if g.m != w.m || g.n != w.n || g.idxBits != w.idxBits || g.stride != w.stride {
			return fmt.Errorf("shape (%d,%d,%d,%v), want (%d,%d,%d,%v)",
				g.m, g.n, g.idxBits, g.stride, w.m, w.n, w.idxBits, w.stride)
		}
		if g.size != w.size || g.ckBits != w.ckBits {
			return fmt.Errorf("size %d ckBits %d, want %d and %d", g.size, g.ckBits, w.size, w.ckBits)
		}
		if err := diffBitvec("fr", g.fr, w.fr); err != nil {
			return err
		}
		if err := diffBitvec("bl", g.bl, w.bl); err != nil {
			return err
		}
		if !slices.EqualFunc(g.cks, w.cks, func(a, b lastNCk) bool {
			return a.pos == b.pos && a.frLen == b.frLen && a.blLen == b.blLen &&
				a.lastVal == b.lastVal && slices.Equal(a.tb, b.tb)
		}) {
			return fmt.Errorf("checkpoints %+v, want %+v", g.cks, w.cks)
		}
	case *fcmStream:
		g, ok := got.(*fcmStream)
		if !ok {
			return fmt.Errorf("got %T, want %T", got, want)
		}
		if g.m != w.m || g.order != w.order || g.tbBits != w.tbBits || g.stride != w.stride {
			return fmt.Errorf("shape (%d,%d,%d,%v), want (%d,%d,%d,%v)",
				g.m, g.order, g.tbBits, g.stride, w.m, w.order, w.tbBits, w.stride)
		}
		if g.size != w.size || g.ckBits != w.ckBits {
			return fmt.Errorf("size %d ckBits %d, want %d and %d", g.size, g.ckBits, w.size, w.ckBits)
		}
		if err := diffBitvec("fr", g.fr, w.fr); err != nil {
			return err
		}
		if err := diffBitvec("bl", g.bl, w.bl); err != nil {
			return err
		}
		if !slices.Equal(g.bltb0, w.bltb0) {
			return fmt.Errorf("bltb0 differs")
		}
		if !slices.EqualFunc(g.cks, w.cks, func(a, b fcmCk) bool {
			return a.pos == b.pos && a.frLen == b.frLen && a.blLen == b.blLen &&
				slices.Equal(a.frtb, b.frtb) && slices.Equal(a.bltb, b.bltb) && slices.Equal(a.win, b.win)
		}) {
			return fmt.Errorf("checkpoints differ (%d, want %d)", len(g.cks), len(w.cks))
		}
	default:
		return fmt.Errorf("reference is %T", want)
	}
	return nil
}

// predictorSpecs is every predictor-backed candidate: the kinds Load
// normalises.
func predictorSpecs() []Spec {
	var out []Spec
	for _, sp := range Candidates {
		if sp.Kind != KindVerbatim && sp.Kind != KindPacked {
			out = append(out, sp)
		}
	}
	return out
}

// loadTestVals mixes repeats, short strides and fresh values so every
// method sees hits and misses in both directions.
func loadTestVals(rng *rand.Rand, m int) []uint32 {
	vals := make([]uint32, m)
	var v uint32
	for i := range vals {
		switch rng.Intn(4) {
		case 0:
			v = uint32(rng.Intn(6)) * 7
		case 1:
			v += 3
		case 2:
			v = rng.Uint32()
		}
		vals[i] = v
	}
	return vals
}

// TestLoadMatchesTwoPass is the differential test of the one-pass load: for
// every predictor kind, order and table size, at lengths around 0, 1 and the
// checkpoint spacing, Load(Save(s)) equals what the two-pass reference
// builds, field by field — and both equal the stream that was saved.
func TestLoadMatchesTwoPass(t *testing.T) {
	lengths := []int{0, 1, 2, 3, 35, 36, 37, 1023, 1024, 1025, 2047, 2048, 2049, 5000}
	if !testing.Short() {
		// The automatic policy gives FCM streams interior checkpoints only
		// once the 2^16-entry tables fit the budget several times over.
		lengths = append(lengths, 2_200_000)
	}
	rng := rand.New(rand.NewSource(16))
	for _, m := range lengths {
		vals := loadTestVals(rng, m)
		for _, spec := range predictorSpecs() {
			if m > 1<<20 && spec.Order > 2 {
				continue
			}
			orig := Compress(vals, spec)
			var buf bytes.Buffer
			if err := saveTo(&buf, orig); err != nil {
				t.Fatalf("%s/%d: Save: %v", spec, m, err)
			}
			want, err := refLoad(buf.Bytes())
			if err != nil {
				t.Fatalf("%s/%d: reference load: %v", spec, m, err)
			}
			got, _, err := Load(buf.Bytes())
			if err != nil {
				t.Fatalf("%s/%d: Load: %v", spec, m, err)
			}
			if err := diffStreams(got, want); err != nil {
				t.Fatalf("%s/%d: Load differs from the two-pass reference: %v", spec, m, err)
			}
			if err := diffStreams(got, orig); err != nil {
				t.Fatalf("%s/%d: Load differs from the saved stream: %v", spec, m, err)
			}
			if m > 5000 {
				if nck := len(checkpointsOf(got)); nck < 3 {
					t.Fatalf("%s/%d: only %d checkpoints, the case was meant to have interior ones", spec, m, nck)
				}
			}
		}
	}
}

func checkpointsOf(s Stream) []int {
	var out []int
	switch t := s.(type) {
	case *lastNStream:
		for _, ck := range t.cks {
			out = append(out, ck.pos)
		}
	case *fcmStream:
		for _, ck := range t.cks {
			out = append(out, ck.pos)
		}
	}
	return out
}

// TestEmptyStreamHasOneCheckpoint: the start and end states of an empty
// stream are the same state and are recorded once.
func TestEmptyStreamHasOneCheckpoint(t *testing.T) {
	for _, spec := range predictorSpecs() {
		s := Compress(nil, spec)
		if cks := checkpointsOf(s); !slices.Equal(cks, []int{0}) {
			t.Fatalf("%s: empty stream has checkpoints at %v, want [0]", spec, cks)
		}
		if s.CheckpointBits() != 0 {
			t.Fatalf("%s: empty stream charges %d checkpoint bits", spec, s.CheckpointBits())
		}
	}
}

// --- forged, non-canonical BL stores ---

// lastNWire serialises a last-n position-0 state around a hand-built BL
// store.
func lastNWire(stride bool, m, n int, bl *bitstack) []byte {
	kind := KindLastN
	if stride {
		kind = KindLastNStride
	}
	var idxBits uint
	for 1<<idxBits < n {
		idxBits++
	}
	var buf bytes.Buffer
	writeAll(&buf, uint8(kind), b2u8(stride), uint32(m), uint32(n), uint32(idxBits),
		uint32(0), uint32(0), uint64(0))
	writeZeroU32s(&buf, n)
	writeEmptyBits(&buf)
	writeBits(&buf, bl)
	return buf.Bytes()
}

// blRefs builds a BL store from references given in stream order (the store
// is a stack: the first value's reference is pushed last).
type blRef struct {
	hit bool
	v   uint32 // index for a hit, literal otherwise
}

func lastNBL(idxBits uint, refs ...blRef) *bitstack {
	var b bitstack
	for i := len(refs) - 1; i >= 0; i-- {
		if refs[i].hit {
			b.pushBits(refs[i].v, idxBits)
		} else {
			b.pushBits(refs[i].v, 32)
		}
		b.pushBit(refs[i].hit)
	}
	return &b
}

// forgedLastNLiteralInTable spells 5, 5 with two literals: the second 5 is
// in the table by then, so the canonical reference is a hit on slot 0.
func forgedLastNLiteralInTable() []byte {
	return lastNWire(false, 2, 4, lastNBL(2, blRef{false, 5}, blRef{false, 5}))
}

// forgedLastNLateHit spells 0 with a hit on slot 2 of the all-zero table:
// slot 0 already matches, so the canonical index is 0.
func forgedLastNLateHit() []byte {
	return lastNWire(false, 1, 4, lastNBL(2, blRef{true, 2}))
}

// forgedFCMPredictingMiss spells the single value 0 as a miss whose payload
// is the zero the table already holds: the payload predicts the value, so
// the canonical entry is a hit.
func forgedFCMPredictingMiss(kind Kind) []byte {
	var buf bytes.Buffer
	writeAll(&buf, uint8(kind), uint32(1), uint32(1), uint32(4), uint32(0), uint64(0))
	writeZeroU32s(&buf, 16)
	writeZeroU32s(&buf, 16)
	win := 1
	if kind == KindDFCM {
		win = 2
	}
	writeZeroU32s(&buf, win)
	writeEmptyBits(&buf)
	var bl bitstack
	bl.pushBits(0, 32)
	bl.pushBit(false)
	writeBits(&buf, &bl)
	return buf.Bytes()
}

func forgedSeeds() map[string][]byte {
	return map[string][]byte{
		"last-n literal for a value in the table": forgedLastNLiteralInTable(),
		"last-n hit index past an earlier match":  forgedLastNLateHit(),
		"fcm miss whose payload predicts":         forgedFCMPredictingMiss(KindFCM),
		"dfcm miss whose payload predicts":        forgedFCMPredictingMiss(KindDFCM),
	}
}

// TestLoadRejectsNonCanonicalStores: each forged store decodes (the two-pass
// reference accepts it and silently rewrites BL) but is not what the encoder
// writes, so the one-pass load must refuse it rather than hand out cursors
// whose blLen bookkeeping disagrees with the store.
func TestLoadRejectsNonCanonicalStores(t *testing.T) {
	for name, data := range forgedSeeds() {
		if _, err := refLoad(data); err != nil {
			t.Fatalf("%s: the seed is meant to decode under the two-pass reference: %v", name, err)
		}
		wantLoadErr(t, data, name)
	}
	// A predictor state that is not zero at position 0 is refused too: every
	// cursor starts from zeros.
	b := saveBytes(t, []uint32{3, 3, 6}, Spec{KindLastN, 4})
	wantLoadErr(t, mutate(b, 18, 9), "last-n lastVal not zero at position 0")
	wantLoadErr(t, mutate(b, 34, 9), "last-n table not zero at position 0")
	b = saveBytes(t, []uint32{3, 3, 6}, Spec{KindFCM, 1})
	wantLoadErr(t, mutate(b, 29, 9), "fcm FR table not zero at position 0")
}

// checkLoadAgainstReference is FuzzLoad's differential half: whatever Load
// accepts, the two-pass reference accepts and builds identically.
func checkLoadAgainstReference(t *testing.T, data []byte, got Stream) {
	t.Helper()
	want, err := refLoad(data)
	if err != nil {
		t.Fatalf("Load accepted a stream the two-pass reference rejects: %v", err)
	}
	if want == nil {
		return
	}
	if err := diffStreams(got, want); err != nil {
		t.Fatalf("Load diverges from the two-pass reference: %v", err)
	}
}

// benchVals is m values of short strides broken by jumps: the shape of
// timestamps and ordinals, where last-n and packed win selection.
func benchVals(m int) []uint32 {
	rng := rand.New(rand.NewSource(1))
	vals := make([]uint32, m)
	var v uint32
	for i := range vals {
		if rng.Intn(8) == 0 {
			v = uint32(rng.Intn(1 << 12))
		} else {
			v += uint32(rng.Intn(3))
		}
		vals[i] = v
	}
	return vals
}

// BenchmarkEncode is the encode kernels' cost per value.
func BenchmarkEncode(b *testing.B) {
	vals := benchVals(1 << 16)
	for _, spec := range []Spec{{KindLastN, 4}, {KindLastNStride, 8}, {KindPacked, 0}} {
		b.Run(spec.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink += Compress(vals, spec).Len()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vals)), "ns/value")
		})
	}
}

// BenchmarkLoadStream is the load kernels on benchVals (short slot-0 runs)
// and on a ramp broken every 1000 values (long ones).
func BenchmarkLoadStream(b *testing.B) {
	const m = 1 << 16
	inputs := []namedVals{{"bench", benchVals(m)}, {"ramp", rampVals(rand.New(rand.NewSource(1)), m, 1000)}}
	for _, spec := range []Spec{{KindLastN, 4}, {KindLastNStride, 8}, {KindFCM, 2}, {KindDFCM, 2}} {
		for _, in := range inputs {
			var buf bytes.Buffer
			if err := saveTo(&buf, Compress(in.vals, spec)); err != nil {
				b.Fatal(err)
			}
			data := buf.Bytes()
			b.Run(spec.String()+"/"+in.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(m * 4)
				for i := 0; i < b.N; i++ {
					s, _, err := Load(data)
					if err != nil {
						b.Fatal(err)
					}
					benchSink += s.Len()
				}
			})
		}
	}
}

// --- forged stores against every certification branch of the load kernel ---

// canonRefs is the BL store pushRef would write for the table-level values xs
// (strides, for a stride stream) from the all-zero table of size n.
func canonRefs(n int, xs []uint32) []blRef {
	tb := make([]uint32, n)
	refs := make([]blRef, len(xs))
	for p, x := range xs {
		j := slices.Index(tb, x)
		if j >= 0 {
			refs[p] = blRef{true, uint32(j)}
		} else {
			refs[p] = blRef{false, x}
			j = n - 1
		}
		copy(tb[1:j+1], tb[:j])
		tb[0] = x
	}
	return refs
}

// TestLoadKernelCertifications drives each refusal of lastNStream.load — a
// hit that is not the first match, a literal already in the table, a store
// that ends early, a hit or a literal cut below its width, bits left beyond
// the stream — with a hand-built store whose offending entry straddles a
// 64-bit word of the store and one where it does not, for table sizes 2, 4
// and 8, plain and stride. Each forged store must be refused with an error;
// its canonical twin (same layout, the offending entry replaced by the one
// pushRef writes) must load, and load to what the two-pass reference builds.
func TestLoadKernelCertifications(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		idxBits := uint(0)
		for 1<<idxBits < n {
			idxBits++
		}
		hitW := int(idxBits) + 1
		for _, stride := range []bool{false, true} {
			for _, straddle := range []bool{false, true} {
				// The entry under test is value 0 of the stream: the zero the
				// all-zero table holds in every slot. Below it in the store
				// sit a literal (33 bits) and hits on it, as many as put the
				// entry across bit 64 — or, not straddling, nothing at all.
				xs := []uint32{0}
				below := func(w int) {
					if !straddle {
						return
					}
					xs = append(xs, 77)
					for s := 33; !(s < 64 && s+w > 64); s += hitW {
						xs = append(xs, 77)
					}
				}
				name := func(what string) string {
					return fmt.Sprintf("%s n=%d stride=%v straddle=%v", what, n, stride, straddle)
				}
				// refuse requires Load to fail in the named branch, and — for an
				// entry under test, w bits wide at the top of the store bl —
				// the entry to lie across a word boundary exactly when asked.
				refuse := func(what, phrase string, m int, bl *bitstack, w int) {
					t.Helper()
					if w > 0 && ((bl.n-uint64(w))>>6 != (bl.n-1)>>6) != straddle {
						t.Fatalf("%s: entry at bits [%d,%d) of the store", name(what), bl.n-uint64(w), bl.n)
					}
					_, _, err := Load(lastNWire(stride, m, n, bl))
					if err == nil || !strings.Contains(err.Error(), phrase) {
						t.Fatalf("%s: Load returned %v, want an error saying %q", name(what), err, phrase)
					}
				}
				accept := func(what string, data []byte) {
					t.Helper()
					got, _, err := Load(data)
					if err != nil {
						t.Fatalf("%s: the canonical store is refused: %v", name(what), err)
					}
					checkLoadAgainstReference(t, data, got)
				}

				// A hit on slot 1 for a value slot 0 already holds.
				xs = xs[:1]
				below(hitW)
				refs := canonRefs(n, xs)
				accept("first-match twin", lastNWire(stride, len(xs), n, lastNBL(idxBits, refs...)))
				refs[0] = blRef{true, 1}
				refuse("hit past the first match", "not the first match", len(xs), lastNBL(idxBits, refs...), hitW)

				// A literal for a value the table holds.
				xs = xs[:1]
				below(33)
				refs = canonRefs(n, xs)
				accept("literal twin", lastNWire(stride, len(xs), n, lastNBL(idxBits, refs...)))
				refs[0] = blRef{false, 0}
				refuse("literal in the table", "is in the table", len(xs), lastNBL(idxBits, refs...), 33)

				// The structural refusals: a canonical store of fresh values
				// (two words' worth when straddling) under a header that
				// counts one value more or one fewer, or over a stub of an
				// entry too short for its flag.
				xs = []uint32{5}
				if straddle {
					xs = []uint32{5, 6, 7}
				}
				refs = canonRefs(n, xs)
				refuse("store ends early", "ends at value", len(xs)+1, lastNBL(idxBits, refs...), 0)
				refuse("bits beyond the stream", "beyond the stream", len(xs)-1, lastNBL(idxBits, refs...), 0)
				for _, stub := range []struct {
					what string
					bits int
					flag bool
				}{{"hit cut below its width", hitW - 1, true}, {"literal cut below its width", 32, false}, {"literal cut to its flag", 1, false}} {
					var bl bitstack
					for i := 1; i < stub.bits; i++ {
						bl.pushBit(false)
					}
					bl.pushBit(stub.flag)
					above := lastNBL(idxBits, refs...)
					for i := uint64(0); i < above.n; i++ {
						bl.pushBit(above.words[i>>6]>>(i&63)&1 == 1)
					}
					refuse(stub.what, "truncated at value", len(xs)+1, &bl, 0)
				}
			}
		}
	}
}
