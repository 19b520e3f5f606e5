package stream

// bitstack is an append/pop-at-end bit vector. Compressed entries are laid
// out with their flag bit *last* so that popping from the end can first read
// the flag and then the (optional) payload — the property that makes the
// FR and BL entry stores of a bidirectional stream parse-able from the
// cursor side.
type bitstack struct {
	words []uint64
	n     uint64 // bit length
}

// pushBits appends the low k bits of v (k <= 32).
func (b *bitstack) pushBits(v uint32, k uint) {
	if k == 0 {
		return
	}
	word := b.n >> 6
	off := b.n & 63
	for uint64(len(b.words)) <= (b.n+uint64(k)-1)>>6 {
		b.words = append(b.words, 0)
	}
	mask := uint64(v) & ((1 << k) - 1)
	b.words[word] |= mask << off
	if off+uint64(k) > 64 {
		b.words[word+1] |= mask >> (64 - off)
	}
	b.n += uint64(k)
}

// popBits removes and returns the top k bits (k <= 32). The last-pushed bit
// is the most significant bit of the result.
func (b *bitstack) popBits(k uint) uint32 {
	if uint64(k) > b.n {
		panic("bitstack: underflow")
	}
	b.n -= uint64(k)
	start := b.n
	word := start >> 6
	off := start & 63
	v := b.words[word] >> off
	if off+uint64(k) > 64 && word+1 < uint64(len(b.words)) {
		v |= b.words[word+1] << (64 - off)
	}
	v &= (1 << k) - 1
	// Clear the vacated bits so future pushes OR cleanly.
	b.words[word] &^= ((uint64(1)<<k - 1) << off)
	if off+uint64(k) > 64 && word+1 < uint64(len(b.words)) {
		b.words[word+1] &^= (uint64(1)<<k - 1) >> (64 - off)
	}
	return uint32(v)
}

// pushBit appends one bit.
func (b *bitstack) pushBit(v bool) {
	if v {
		b.pushBits(1, 1)
	} else {
		b.pushBits(0, 1)
	}
}

// popBit removes and returns the top bit.
func (b *bitstack) popBit() bool { return b.popBits(1) == 1 }

// bits returns the current bit length.
func (b *bitstack) bits() uint64 { return b.n }

// empty reports whether the stack holds no bits.
func (b *bitstack) empty() bool { return b.n == 0 }

// bitvec is an immutable bit vector with random access, used as the shared
// read-only entry store behind detached cursors. A cursor addresses the
// store by its current bit length: because entries carry their flag bit
// *last*, the entry "on top" at length L has its flag at bit L-1 and its
// payload just below.
type bitvec struct {
	words []uint64
	n     uint64 // bit length
}

// bitWriter lays entries into words back to back, low bits first, through
// a 64-bit accumulator stored a word at a time.
type bitWriter struct {
	words     []uint64
	acc, bits uint64 // bits is how many low bits of acc are pending
	w         int
}

// put appends the low width bits of entry (width <= 64; entry < 1<<width).
func (b *bitWriter) put(entry, width uint64) {
	b.acc |= entry << b.bits
	if b.bits += width; b.bits >= 64 {
		b.words[b.w] = b.acc
		b.w++
		b.bits -= 64
		b.acc = entry >> (width - b.bits)
	}
}

// flush stores the pending bits.
func (b *bitWriter) flush() {
	if b.bits > 0 {
		b.words[b.w] = b.acc
	}
}

// freeze snapshots a bitstack into an immutable bitvec (the words are
// copied, trimmed to the used length).
func (b *bitstack) freeze() bitvec {
	nw := (b.n + 63) >> 6
	return bitvec{words: append([]uint64(nil), b.words[:nw]...), n: b.n}
}

// get reads k bits (k <= 32) starting at absolute bit position start.
func (b *bitvec) get(start uint64, k uint) uint32 {
	if k == 0 {
		return 0
	}
	word := start >> 6
	off := start & 63
	v := b.words[word] >> off
	if off+uint64(k) > 64 && word+1 < uint64(len(b.words)) {
		v |= b.words[word+1] << (64 - off)
	}
	return uint32(v & (1<<k - 1))
}

// top reads the k bits ending at absolute position end (the entry payload
// convention: last-pushed bit highest).
func (b *bitvec) top(end uint64, k uint) uint32 { return b.get(end-uint64(k), k) }

// topWindow returns the 64 bits ending at absolute position end,
// left-aligned (bit end-1 highest, so the flag of the entry on top leads),
// and how many of them are the store's: min(end, 64). Bits below those are
// zero.
func (b *bitvec) topWindow(end uint64) (win, valid uint64) {
	if end < 64 {
		if end == 0 {
			return 0, 0
		}
		return b.words[0] << (64 - end), end
	}
	start := end - 64
	win = b.words[start>>6]
	if off := start & 63; off != 0 {
		win = win>>off | b.words[start>>6+1]<<(64-off)
	}
	return win, 64
}
