package stream

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// The batched cursor kernels (NextN, PrevN and the Seek walk built on them)
// against the single steps: after every call, a cursor driven through the
// kernels holds the values and the whole state of one driven only by Next
// and Prev.

// diffCursors compares two cursors over one stream field by field.
func diffCursors(got, want Cursor) error {
	switch w := want.(type) {
	case *lastNCursor:
		g := got.(*lastNCursor)
		if g.pos != w.pos || g.frLen != w.frLen || g.blLen != w.blLen || g.lastVal != w.lastVal || !slices.Equal(g.tb, w.tb) {
			return fmt.Errorf("state pos %d fr %d bl %d lastVal %d tb %v, want pos %d fr %d bl %d lastVal %d tb %v",
				g.pos, g.frLen, g.blLen, g.lastVal, g.tb, w.pos, w.frLen, w.blLen, w.lastVal, w.tb)
		}
	case *fcmCursor:
		g := got.(*fcmCursor)
		if g.pos != w.pos || g.frLen != w.frLen || g.blLen != w.blLen ||
			!slices.Equal(g.frtb, w.frtb) || !slices.Equal(g.bltb, w.bltb) || !slices.Equal(g.win, w.win) {
			return fmt.Errorf("state pos %d fr %d bl %d, want pos %d fr %d bl %d (or the tables differ)",
				g.pos, g.frLen, g.blLen, w.pos, w.frLen, w.blLen)
		}
	default:
		if got.Pos() != want.Pos() {
			return fmt.Errorf("pos %d, want %d", got.Pos(), want.Pos())
		}
	}
	return nil
}

type opKind int

const (
	opNextN opKind = iota
	opPrevN
	opSeek
	opNext
	opPrev
)

// cursorOp is one call of a script: a batch size for NextN/PrevN, a target
// for Seek.
type cursorOp struct {
	kind opKind
	arg  int
}

var kernelBatches = []int{1, 2, 7, 64, 1000}

// runScript plays ops on a cursor of s and steps a reference cursor to the
// same position with Next/Prev only, checking the values each call returns
// against vals and the two cursors' states after every call.
func runScript(t testing.TB, name string, s Stream, vals []uint32, ops []cursorOp) {
	t.Helper()
	c, ref := s.NewCursor(), s.NewCursor()
	buf := make([]uint32, slices.Max(kernelBatches))
	for k, op := range ops {
		pos := c.Pos()
		var got []uint32 // values in traversal order
		back := false
		switch op.kind {
		case opNextN:
			got = buf[:c.NextN(buf[:op.arg])]
			if want := min(op.arg, len(vals)-pos); len(got) != want {
				t.Fatalf("%s: op %d NextN(%d) at %d decoded %d, want %d", name, k, op.arg, pos, len(got), want)
			}
		case opPrevN:
			got, back = buf[:c.PrevN(buf[:op.arg])], true
			if want := min(op.arg, pos); len(got) != want {
				t.Fatalf("%s: op %d PrevN(%d) at %d decoded %d, want %d", name, k, op.arg, pos, len(got), want)
			}
		case opSeek:
			c.Seek(op.arg)
		case opNext:
			if pos == len(vals) {
				continue
			}
			got = []uint32{c.Next()}
		case opPrev:
			if pos == 0 {
				continue
			}
			got, back = []uint32{c.Prev()}, true
		}
		for i, v := range got {
			p := pos + i
			if back {
				p = pos - 1 - i
			}
			if v != vals[p] {
				t.Fatalf("%s: op %d (%+v from %d) value at %d = %d, want %d", name, k, op, pos, p, v, vals[p])
			}
		}
		for ref.Pos() < c.Pos() {
			if p, v := ref.Pos(), ref.Next(); v != vals[p] {
				t.Fatalf("%s: reference Next at %d = %d, want %d", name, p, v, vals[p])
			}
		}
		for ref.Pos() > c.Pos() {
			if v := ref.Prev(); v != vals[ref.Pos()] {
				t.Fatalf("%s: reference Prev at %d = %d, want %d", name, ref.Pos(), v, vals[ref.Pos()])
			}
		}
		if err := diffCursors(c, ref); err != nil {
			t.Fatalf("%s: after op %d (%+v from %d): %v", name, k, op, pos, err)
		}
	}
}

func equalVals(m int, v uint32) []uint32 {
	vals := make([]uint32, m)
	for i := range vals {
		vals[i] = v
	}
	return vals
}

// rampVals is a +1 ramp restarted at a random value every `every` values
// (never, for every <= 0).
func rampVals(rng *rand.Rand, m, every int) []uint32 {
	vals := make([]uint32, m)
	v := rng.Uint32()
	for i := range vals {
		if every > 0 && i%every == 0 {
			v = rng.Uint32()
		}
		vals[i] = v
		v++
	}
	return vals
}

// kernelInputs are the shapes the kernels must agree on at length m, for
// table size n: runs of every length against the 64-bit window and the batch
// sizes, run-poor data, and strides that wrap.
func kernelInputs(rng *rand.Rand, m, n int) []namedVals {
	in := []namedVals{{"equal", equalVals(m, 0x5eed)}, {"ramp", rampVals(rng, m, 0)}, {"bench", benchVals(m)}}
	for _, every := range []int{7, 63, 64, 65, 1000} {
		in = append(in, namedVals{fmt.Sprintf("ramp/%d", every), rampVals(rng, m, every)})
	}
	random := make([]uint32, m)
	for i := range random {
		random[i] = uint32(rng.Intn(n + 2))
	}
	wrap := make([]uint32, m)
	for i := range wrap {
		wrap[i] = uint32(i) * 0x9e3779b1
	}
	return append(in, namedVals{"random", random}, namedVals{"wrap", wrap})
}

type namedVals struct {
	name string
	vals []uint32
}

// randomScript is ops calls from random positions: mostly batches, with
// seeks both far and near, and single steps.
func randomScript(rng *rand.Rand, m, ops int) []cursorOp {
	anchor := rng.Intn(m + 1)
	script := []cursorOp{{opSeek, anchor}}
	for len(script) < ops {
		op := cursorOp{kind: opKind(rng.Intn(5))}
		switch op.kind {
		case opNextN, opPrevN:
			op.arg = kernelBatches[rng.Intn(len(kernelBatches))]
		case opSeek:
			op.arg = rng.Intn(m + 1)
			if rng.Intn(2) == 0 { // near the last target: often a walk, not a restore
				op.arg = min(max(anchor+rng.Intn(3001)-1500, 0), m)
			}
			anchor = op.arg
		}
		script = append(script, op)
	}
	return script
}

func lastNSpecs() []Spec {
	var out []Spec
	for _, sp := range Candidates {
		if sp.Kind == KindLastN || sp.Kind == KindLastNStride {
			out = append(out, sp)
		}
	}
	return out
}

// TestCursorKernelsMatchSteps drives the six last-n specs over every kernel
// input at lengths around a 64-bit word and one long stream, through random
// scripts of NextN/PrevN, Seek, Next and Prev; then packed streams (see
// packedKernelCases).
func TestCursorKernelsMatchSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, m := range []int{0, 1, 63, 64, 65, 200_000} {
		for _, spec := range lastNSpecs() {
			for _, in := range kernelInputs(rng, m, spec.Order) {
				s := Compress(in.vals, spec)
				runScript(t, fmt.Sprintf("%s/%s/%d", spec, in.name, m), s, in.vals, randomScript(rng, m, 300))
			}
		}
	}
	for _, c := range packedKernelCases(t, rng) {
		runScript(t, c.name, c.s, c.vals, randomScript(rng, len(c.vals), 40))
	}
}

type packedCase struct {
	name string
	s    Stream
	vals []uint32
}

// packedKernelCases is every length up to 300 and one long stream at widths
// 0, 1, 7, 8, 31 and 32, so the last value starts both inside the payload's
// final 8 bytes (read from the last word) and just before them (one
// unaligned load); each stream as Compress builds it, reloaded by Load (a
// copy) and by Scan (a view of the saved bytes).
func packedKernelCases(t *testing.T, rng *rand.Rand) []packedCase {
	lengths := []int{100_000}
	for m := range 301 {
		lengths = append(lengths, m)
	}
	var out []packedCase
	for _, width := range []uint{0, 1, 7, 8, 31, 32} {
		inTail, beforeTail := 0, 0
		for _, m := range lengths {
			vals := packedVals(rng, m, width)
			built := Compress(vals, Spec{KindPacked, 0})
			if size := len(built.(*packed).data); m > 0 && width > 0 {
				if start := (m - 1) * int(width) / 8; start > size-8 {
					inTail++
				} else if start == size-8 {
					beforeTail++
				}
			}
			var buf bytes.Buffer
			if err := saveTo(&buf, built); err != nil {
				t.Fatal(err)
			}
			loaded, _, err := Load(buf.Bytes())
			if err != nil {
				t.Fatalf("packed%d/%d: Load: %v", width, m, err)
			}
			scanned, _, err := Scan(buf.Bytes())
			if err != nil {
				t.Fatalf("packed%d/%d: Scan: %v", width, m, err)
			}
			for _, s := range []struct {
				how string
				s   Stream
			}{{"built", built}, {"load", loaded}, {"scan", scanned}} {
				out = append(out, packedCase{fmt.Sprintf("packed%d/%d/%s", width, m, s.how), s.s, vals})
			}
		}
		if width > 0 && (inTail == 0 || beforeTail == 0) {
			t.Fatalf("packed%d: %d lengths end inside the last 8 bytes, %d just before them; want both", width, inTail, beforeTail)
		}
	}
	return out
}

// TestLoadRunsStraddleCheckpoints: streams whose slot-0 runs cross every
// checkpoint position load to what the two-pass reference builds, and to the
// stream that was saved.
func TestLoadRunsStraddleCheckpoints(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	const m = 5000 // checkpoints at 1024, 2048, 3072 and 4096
	for _, spec := range lastNSpecs() {
		for _, in := range []namedVals{{"equal", equalVals(m, 3)}, {"ramp", rampVals(rng, m, 0)}} {
			name, orig := in.name, Compress(in.vals, spec)
			var buf bytes.Buffer
			if err := saveTo(&buf, orig); err != nil {
				t.Fatal(err)
			}
			got, _, err := Load(buf.Bytes())
			if err != nil {
				t.Fatalf("%s/%s: Load: %v", spec, name, err)
			}
			if nck := len(checkpointsOf(got)); nck < 6 {
				t.Fatalf("%s/%s: %d checkpoints, want interior ones", spec, name, nck)
			}
			checkLoadAgainstReference(t, buf.Bytes(), got)
			if err := diffStreams(got, orig); err != nil {
				t.Fatalf("%s/%s: Load differs from the saved stream: %v", spec, name, err)
			}
		}
	}
}

// TestLoadRefusesOneBitTail: a BL store of slot-0 hits over a lone flag bit
// is refused as truncated, wherever the tail falls in the load's window. A
// run that counted zero entries there would never advance.
func TestLoadRefusesOneBitTail(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		idxBits := uint(0)
		for 1<<idxBits < n {
			idxBits++
		}
		for _, stride := range []bool{false, true} {
			for hits := 0; hits < 70; hits++ {
				var bl bitstack
				bl.pushBit(true)
				for range hits {
					bl.pushBits(0, idxBits)
					bl.pushBit(true)
				}
				done := make(chan error, 1)
				go func() {
					_, _, err := Load(lastNWire(stride, hits+1, n, &bl))
					done <- err
				}()
				select {
				case err := <-done:
					if err == nil || !strings.Contains(err.Error(), "truncated") {
						t.Fatalf("n=%d stride=%v hits=%d: Load returned %v, want a truncation error", n, stride, hits, err)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("n=%d stride=%v hits=%d: Load did not return", n, stride, hits)
				}
			}
		}
	}
}

// FuzzCursor: for any values, spec and op script, the kernels return the
// values and leave the state single steps do.
func FuzzCursor(f *testing.F) {
	f.Add([]byte{2, 1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(11))
	f.Add([]byte{1, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 3, 7, 7}, []byte{0, 0, 6, 9, 3, 1, 4}, uint8(9))
	f.Add([]byte{0, 1, 0, 0, 0, 2, 0, 0, 0}, []byte{20, 21, 22, 23, 24}, uint8(3))
	specs := Candidates
	f.Fuzz(func(t *testing.T, data, script []byte, which uint8) {
		vals := fuzzVals(data)
		spec := specs[int(which)%len(specs)]
		var ops []cursorOp
		for i, b := range script {
			op := cursorOp{kind: opKind(b % 5)}
			switch op.kind {
			case opNextN, opPrevN:
				op.arg = kernelBatches[int(b/5)%len(kernelBatches)]
			case opSeek:
				op.arg = (int(b/5) * 17 * (i + 1)) % (len(vals) + 1)
			}
			ops = append(ops, op)
		}
		runScript(t, spec.String(), Compress(vals, spec), vals, ops)
	})
}

// BenchmarkCursor is the batched kernels' cost per value over a whole
// stream, in 64-value batches: benchVals has short runs, rampVals long ones
// (packed reads them at 13 and 32 bits a value).
func BenchmarkCursor(b *testing.B) {
	const m = 1 << 16
	inputs := []namedVals{{"bench", benchVals(m)}, {"ramp", rampVals(rand.New(rand.NewSource(1)), m, 1000)}}
	for _, spec := range []Spec{{KindLastN, 4}, {KindLastNStride, 2}, {KindLastNStride, 8}, {KindPacked, 0}} {
		for _, in := range inputs {
			c := Compress(in.vals, spec).NewCursor()
			var buf [64]uint32
			b.Run(fmt.Sprintf("%s/%s/NextN", spec, in.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c.Seek(0)
					for c.NextN(buf[:]) > 0 {
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*m), "ns/value")
			})
			b.Run(fmt.Sprintf("%s/%s/PrevN", spec, in.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c.Seek(m)
					for c.PrevN(buf[:]) > 0 {
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*m), "ns/value")
			})
		}
	}
}
