package stream

import (
	"fmt"
	"math/bits"
)

// packed stores the stream with a fixed bit width — the smallest width that
// holds the stream's maximum value. It is trivially bidirectional with O(1)
// random access and is the natural encoding for tier-1 pattern index
// sequences, so it participates in method selection alongside the
// predictors. The payload is immutable; cursors carry only a position.
type packed struct {
	data  bitvec
	width uint
	m     int
	stats *SeekCounters
}

// newPacked lays vals out width bits apiece, value 0 lowest, into words
// sized exactly.
func newPacked(vals []uint32) *packed {
	var max uint32
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	width := uint64(bits.Len32(max))
	n := uint64(len(vals)) * width
	var bw bitWriter
	if n > 0 {
		bw.words = make([]uint64, (n+63)/64)
	}
	for _, v := range vals {
		bw.put(uint64(v), width)
	}
	bw.flush()
	return &packed{width: uint(width), m: len(vals), data: bitvec{words: bw.words, n: n}}
}

func (p *packed) Len() int               { return p.m }
func (p *packed) Name() string           { return fmt.Sprintf("packed%d", p.width) }
func (p *packed) CheckpointBits() uint64 { return 0 }

func (p *packed) SizeBits() uint64 {
	return uint64(p.m)*uint64(p.width) + HeaderBits
}

func (p *packed) NewCursor() Cursor { return &packedCursor{p: p} }

type packedCursor struct {
	p   *packed
	pos int
}

func (c *packedCursor) Len() int { return c.p.m }
func (c *packedCursor) Pos() int { return c.pos }

func (c *packedCursor) Clone() Cursor {
	cp := *c
	return &cp
}

func (c *packedCursor) Next() uint32 {
	if c.pos >= c.p.m {
		panic("stream: Next past end")
	}
	v := c.p.data.get(uint64(c.pos)*uint64(c.p.width), c.p.width)
	c.pos++
	return v
}

func (c *packedCursor) Prev() uint32 {
	if c.pos == 0 {
		panic("stream: Prev past start")
	}
	c.pos--
	return c.p.data.get(uint64(c.pos)*uint64(c.p.width), c.p.width)
}

func (c *packedCursor) NextN(dst []uint32) int {
	n := c.p.m - c.pos
	if n > len(dst) {
		n = len(dst)
	}
	if n <= 0 {
		return 0
	}
	width := c.p.width
	for i := 0; i < n; i++ {
		dst[i] = c.p.data.get(uint64(c.pos+i)*uint64(width), width)
	}
	c.pos += n
	return n
}

func (c *packedCursor) PrevN(dst []uint32) int {
	n := c.pos
	if n > len(dst) {
		n = len(dst)
	}
	if n <= 0 {
		return 0
	}
	width := c.p.width
	for i := 0; i < n; i++ {
		dst[i] = c.p.data.get(uint64(c.pos-1-i)*uint64(width), width)
	}
	c.pos -= n
	return n
}

func (c *packedCursor) Seek(i int) {
	if i < 0 || i > c.p.m {
		panic(fmt.Sprintf("stream: seek to %d outside [0,%d]", i, c.p.m))
	}
	c.pos = i
	noteSeek(c.p.stats, false, 0)
}
