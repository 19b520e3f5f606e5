package stream

import (
	"fmt"
	"math/bits"
	"sync"
)

// The selection phase of CompressBest is the hot path of WET freezing: it
// sizes every candidate method on a stream prefix and discards all that
// work except one number. This file makes that phase exact, cheap,
// allocation-free and safe to run from many workers at once:
//
//   - candidates are *sized* by counting entry bits without materializing
//     bitstacks or Stream objects (the counts reproduce the constructors'
//     SizeBits exactly — TestSizeSpecMatchesConstruction pins the
//     equivalence);
//   - BestSpec sizes the twelve predictor candidates in three passes over
//     the prefix instead of twelve, and skips a predictor family outright
//     when a lower bound on its size already loses (see selectBest); it
//     returns the same Spec a candidate-by-candidate argmin would;
//   - each worker owns one Scratch, which holds the selection tables, so
//     concurrent CompressBestScratch calls never contend on table memory;
//   - the single-spec sizer behind SizeBest, whose tables grow with the
//     stream, borrows them from sync.Pools keyed by table size.

// maxPoolBits bounds the pooled table sizes: tableBits caps FCM tables at
// 16 bits and last-n rings use 1–3 bits, so one pool array serves both.
const maxPoolBits = 16

// tablePools[b] holds zeroed []uint32 of length 1<<b. Entries are stored
// as *[]uint32 to avoid boxing the slice header on every Put. The pool
// invariant — every pooled table is all-zero — is what keeps compression
// results independent of reuse history.
var tablePools [maxPoolBits + 1]sync.Pool

func grabTable(b uint) []uint32 {
	if t, ok := tablePools[b].Get().(*[]uint32); ok {
		return *t
	}
	return make([]uint32, 1<<b)
}

// selTableBits is tableBits(SelectionPrefix): a selection probe never needs
// a larger FCM table, so the fused pass owns fixed arrays instead of
// borrowing from tablePools.
const selTableBits = 8

// Scratch is the per-worker reusable state for the selection phase. The
// selection tables live inside it; the full-length sizer's tables are
// borrowed lazily and kept until Release, so a worker draining a job queue
// touches the global pools only twice. A Scratch is not safe for concurrent
// use; zero value is ready.
type Scratch struct {
	tbl [maxPoolBits + 1][]uint32
	// fcm holds the forward tables of fcm1-3 and dfcm1-3 for sizeFCMAll,
	// all-zero between calls like the pooled tables.
	fcm [6][1 << selTableBits]uint32
}

// NewScratch returns an empty scratch; pooled tables are borrowed lazily.
func NewScratch() *Scratch { return &Scratch{} }

// table returns a zeroed table of 1<<b entries. Sizers must re-zero it
// (clear) before returning, preserving the all-zero invariant.
func (sc *Scratch) table(b uint) []uint32 {
	if sc.tbl[b] == nil {
		sc.tbl[b] = grabTable(b)
	}
	return sc.tbl[b]
}

// Release returns all borrowed tables to the size-keyed pools. The scratch
// can be reused afterwards; it will re-borrow on demand.
func (sc *Scratch) Release() {
	for b := range sc.tbl {
		if sc.tbl[b] != nil {
			t := sc.tbl[b]
			sc.tbl[b] = nil
			tablePools[b].Put(&t)
		}
	}
}

// scratchPool backs the convenience CompressBest wrapper for callers that
// do not manage a per-worker Scratch themselves.
var scratchPool = sync.Pool{New: func() interface{} { return NewScratch() }}

// SizeSpec returns exactly Compress(vals, spec).SizeBits() without
// building the stream: no entry stores, no table allocation.
func SizeSpec(vals []uint32, spec Spec, sc *Scratch) uint64 {
	switch spec.Kind {
	case KindVerbatim:
		return uint64(len(vals))*32 + HeaderBits
	case KindPacked:
		sz, _ := sizePacked(vals)
		return sz
	case KindFCM:
		return sizeFCM(vals, spec.Order, false, sc)
	case KindDFCM:
		return sizeFCM(vals, spec.Order, true, sc)
	case KindLastN:
		return sizeLastN(vals, spec.Order, false, sc)
	case KindLastNStride:
		return sizeLastN(vals, spec.Order, true, sc)
	}
	panic(fmt.Sprintf("stream: unknown kind %d", spec.Kind))
}

// BestSpec runs the paper's Selection step — size every candidate on a
// prefix, keep the winner — without constructing any stream. It selects
// exactly the spec CompressBest would.
func BestSpec(vals []uint32, sc *Scratch) Spec {
	i, _ := selectBest(vals, sc)
	return Candidates[i]
}

// Positions in Candidates of the two predictor blocks the fused sizers
// fill: fcm1-3 then dfcm1-3, and last2/4/8 then lastS2/4/8.
const (
	candFCM   = 2
	candLastN = 8
)

// pick is the running winner of a selection: the smallest size, the lowest
// Candidates index among equal sizes — the order a first-wins argmin over
// Candidates produces, whatever order candidates are offered in.
type pick struct {
	idx  int
	bits uint64
}

// beats reports whether p wins against candidate idx at the given size.
func (p pick) beats(idx int, bits uint64) bool {
	return p.bits < bits || p.bits == bits && p.idx < idx
}

func (p *pick) offer(idx int, bits uint64) {
	if !p.beats(idx, bits) {
		*p = pick{idx, bits}
	}
}

// selectBest returns the Candidates index and size of the winner on the
// first SelectionPrefix values of vals. Verbatim and packed cost one scan; the
// twelve predictor candidates are sized by three fused passes, each of
// which runs only while it can still change the result:
//
//   - a last-n pass is handed the running winner's size and gives up once
//     a lower bound on all three of its sizes exceeds it (sizeLastNAll);
//   - the FCM pass is skipped when its floor loses to the running winner:
//     no FCM candidate can cost less than fcm1 with no miss, and fcm1 has
//     the family's lowest index, so if the winner beats (fcmFloor, fcm1)
//     under the tie rule it beats every real FCM size too.
//
// A skipped candidate costs more than the final winner, or ties it at a
// higher index, so the result is the first-wins argmin over all fourteen.
func selectBest(vals []uint32, sc *Scratch) (int, uint64) {
	probe := vals[:min(len(vals), SelectionPrefix)]
	n := uint64(len(probe))
	best := pick{0, n*32 + HeaderBits}
	packed, _ := sizePacked(probe)
	best.offer(1, packed)

	// Strides first: lastS2 is the common winner on timestamps and ordinals,
	// where the plain pass misses on every value and now gives up early.
	if sizes, ok := sizeLastNAll(probe, true, best.bits); ok {
		for i, b := range sizes {
			best.offer(candLastN+3+i, b)
		}
	}
	if sizes, ok := sizeLastNAll(probe, false, best.bits); ok {
		for i, b := range sizes {
			best.offer(candLastN+i, b)
		}
	}
	if fcmFloor := fcmBaseBits(len(probe)) + 32; !best.beats(candFCM, fcmFloor) {
		for i, b := range sc.sizeFCMAll(probe) {
			best.offer(candFCM+i, b)
		}
	}
	return best.idx, best.bits
}

// CompressBestScratch is CompressBest with caller-owned scratch state:
// the selection phase allocates nothing, and only the winning method's
// stream is materialized.
func CompressBestScratch(vals []uint32, sc *Scratch) Stream {
	if len(vals) == 0 {
		return newVerbatim(nil)
	}
	return Compress(vals, BestSpec(vals, sc))
}

// SizeBest runs selection and returns the winning method's exact full
// compressed size and stream name (as Stream.Name() would report it)
// without constructing the stream. Used for sizing-only accounting.
func SizeBest(vals []uint32, sc *Scratch) (sz uint64, name string) {
	if len(vals) == 0 {
		return HeaderBits, "verbatim"
	}
	i, sz := selectBest(vals, sc)
	spec := Candidates[i]
	if spec.Kind == KindPacked {
		sz, width := sizePacked(vals)
		return sz, fmt.Sprintf("packed%d", width)
	}
	if len(vals) > SelectionPrefix {
		sz = SizeSpec(vals, spec, sc)
	}
	return sz, spec.String()
}

// --- fused selection sizers: each must equal SizeSpec on its candidates ---

// sizeLastNAll sizes last2, last4 and last8 (stride: lastS2/4/8) in one
// move-to-front pass over an 8-entry table. It rests on LRU stack
// inclusion: the size-n table is always the first n slots of the size-2n
// table. Both start all-zero; a symbol first found at slot i < n is moved
// to the front identically in both, and one found at i >= n or not at all
// is a miss in the small table, which pushes it in front of its slots
// 0..n-2 — exactly what the large table's move-to-front or miss does to its
// own first n slots. Taking the first match keeps this true among the
// duplicate zeros of the start state. So a symbol hits the size-n table iff
// its slot in the 8-table is below n, and a histogram of hit slots sizes
// all three.
//
// ok is false, and sizes meaningless, when all three sizes must exceed
// limit: every symbol costs each table at least the 2 bits of a last2 hit,
// and one that misses the 8-table costs each of them 33, so the pass stops
// at the miss that lifts floor + 31·misses above limit.
func sizeLastNAll(probe []uint32, stride bool, limit uint64) (sizes [3]uint64, ok bool) {
	n := uint64(len(probe))
	floor := n*2 + 2*32 + HeaderBits
	if stride {
		floor += 32 // lastVal
	}
	if floor > limit {
		return sizes, false
	}
	missBudget := (limit - floor) / 31
	var tb, hist [8]uint32
	var lastVal uint32
values:
	for _, v := range probe {
		x := v
		if stride {
			x, lastVal = v-lastVal, v
		}
		if tb[0] == x {
			hist[0]++
			continue
		}
		// Search and shift together: each slot takes its left neighbour's
		// value until x's old slot (or the evicted last one) absorbs it.
		carry := tb[0]
		tb[0] = x
		for i := 1; i < len(tb); i++ {
			carry, tb[i] = tb[i], carry
			if carry == x {
				hist[i]++
				continue values
			}
		}
		if missBudget == 0 {
			return sizes, false
		}
		missBudget--
	}
	var hits uint64
	slot := 0
	for k := range sizes {
		idxBits := uint64(k + 1)
		for ; slot < 1<<idxBits; slot++ {
			hits += uint64(hist[slot])
		}
		sizes[k] = hits*(idxBits+1) + (n-hits)*33 + 32<<idxBits + HeaderBits
		if stride {
			sizes[k] += 32 // lastVal
		}
	}
	return sizes, true
}

// sizeFCMAll sizes fcm1-3 and dfcm1-3 on probe in one pass. All six share
// tableBits(len(probe)) and the same recent history; a miss stores what a
// hit would have found, so each table update is an unconditional store and
// the size is n + 32·misses plus window, tables and header. dfcm-k is fcm-k
// run on the stride sequence, and the order-k context hash is the
// order-(k-1) hash of the previous step extended by the newest symbol, so
// three rolling FNV states per sequence replace the per-value window
// rehash.
func (sc *Scratch) sizeFCMAll(probe []uint32) (sizes [6]uint64) {
	tbBits := tableBits(len(probe))
	if tbBits > selTableBits {
		panic("stream: selection probe longer than SelectionPrefix")
	}
	t := &sc.fcm
	// v1..v3 are the previous three values, d1..d3 the previous three
	// strides; vh1/vh2 (dh1/dh2) are the FNV states over the last one and
	// two of them. The stream is padded with zeros on the left.
	var v1, v2, v3, d1, d2, d3 uint32
	zero1 := fnvMix(fnvOffset, 0)
	zero2 := fnvMix(zero1, 0)
	vh1, vh2, dh1, dh2 := zero1, zero2, zero1, zero2
	var miss [6]uint32
	// probeSlot predicts head from slot (h, folded), counts the miss, and
	// leaves head in the slot.
	probeSlot := func(k int, h, head uint32) {
		i := uint8(fnvSlot(h, tbBits))
		if t[k][i] != head {
			miss[k]++
		}
		t[k][i] = head
	}
	for _, v := range probe {
		d := v - v1
		h1, h2, h3 := fnvMix(fnvOffset, v), fnvMix(vh1, v), fnvMix(vh2, v)
		probeSlot(0, h1, v1)
		probeSlot(1, h2, v2)
		probeSlot(2, h3, v3)
		vh1, vh2 = h1, h2
		h1, h2, h3 = fnvMix(fnvOffset, d), fnvMix(dh1, d), fnvMix(dh2, d)
		probeSlot(3, h1, d1)
		probeSlot(4, h2, d2)
		probeSlot(5, h3, d3)
		dh1, dh2 = h1, h2
		v1, v2, v3 = v, v1, v2
		d1, d2, d3 = d, d1, d2
	}
	for k := range t {
		clear(t[k][:1<<tbBits])
	}
	base := fcmBaseBits(len(probe))
	// Window values: the order for fcm1-3, one more for dfcm1-3.
	for k, wlen := range [6]uint64{1, 2, 3, 2, 3, 4} {
		sizes[k] = base + (uint64(miss[k])+wlen)*32
	}
	return sizes
}

// fcmBaseBits is what every FCM candidate pays on an n-value stream before
// its window and misses: one hit bit per value, both tables, the header.
func fcmBaseBits(n int) uint64 {
	return uint64(n) + 2*(uint64(1)<<tableBits(n))*32 + HeaderBits
}

// --- single-spec sizers: must mirror the constructors bit for bit ---

// sizePacked returns newPacked's size and its bit width.
func sizePacked(vals []uint32) (sz uint64, width int) {
	var max uint32
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	width = bits.Len32(max)
	return uint64(len(vals))*uint64(width) + HeaderBits, width
}

// sizeFCM counts the FR entry bits of newFCM's construction pass: per
// value, 1 bit on a hit and 33 on a miss, plus the window, both tables,
// and the header. Only the forward (right-context) table is touched during
// construction, so one borrowed table suffices.
func sizeFCM(vals []uint32, order int, stride bool, sc *Scratch) uint64 {
	if order < 1 {
		panic("stream: fcm order must be >= 1")
	}
	wlen := order
	if stride {
		wlen = order + 1
	}
	var winBuf [4]uint32
	var win []uint32
	if wlen <= len(winBuf) {
		win = winBuf[:wlen]
	} else {
		win = make([]uint32, wlen)
	}
	tbBits := tableBits(len(vals))
	frtb := sc.table(tbBits)
	var frBits uint64
	for _, v := range vals {
		h := win[0]
		copy(win, win[1:])
		win[wlen-1] = v
		idx := fcmHash(win, stride, tbBits)
		var pred uint32
		if stride {
			pred = win[0] - frtb[idx]
		} else {
			pred = frtb[idx]
		}
		if pred == h {
			frBits++
		} else {
			frBits += 33
			if stride {
				frtb[idx] = win[0] - h
			} else {
				frtb[idx] = h
			}
		}
	}
	clear(frtb)
	tables := uint64(2) * uint64(len(frtb)) * 32
	return frBits + uint64(wlen)*32 + tables + HeaderBits
}

// sizeLastN counts the FR entry bits of newLastN's construction pass:
// idxBits+1 bits on a table hit, 33 on a miss, plus the ring and header.
func sizeLastN(vals []uint32, n int, stride bool, sc *Scratch) uint64 {
	if n < 2 || n&(n-1) != 0 {
		panic("stream: last-n table size must be a power of two >= 2")
	}
	idxBits := uint(bits.TrailingZeros(uint(n)))
	tb := sc.table(idxBits)
	var frBits uint64
	var lastVal uint32
	for _, v := range vals {
		x := v
		if stride {
			x = v - lastVal
		}
		hit := false
		for i, tv := range tb {
			if tv == x {
				copy(tb[1:i+1], tb[:i])
				tb[0] = x
				frBits += uint64(idxBits) + 1
				hit = true
				break
			}
		}
		if !hit {
			copy(tb[1:], tb[:n-1])
			tb[0] = x
			frBits += 33
		}
		if stride {
			lastVal = v
		}
	}
	clear(tb)
	sz := frBits + uint64(n)*32 + HeaderBits
	if stride {
		sz += 32
	}
	return sz
}
