package stream

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// packed stores the stream with a fixed bit width — the smallest width that
// holds the stream's maximum value. It is trivially bidirectional with O(1)
// random access and is the natural encoding for tier-1 pattern index
// sequences, so it participates in method selection alongside the
// predictors. The payload is immutable; cursors carry only a position.
// data is the payload as Encode writes it, value i at bits [i*width,
// (i+1)*width) of little-endian words: a view of Scan's buffer, else a copy.
type packed struct {
	data  []byte
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
	p := &packed{width: uint(width), m: len(vals), data: make([]byte, (uint64(len(vals))*width+63)/64*8)}
	var acc, pend uint64 // pend low bits of acc are laid out but not stored
	at := 0
	for _, v := range vals {
		acc |= uint64(v) << pend
		if pend += width; pend >= 64 {
			binary.LittleEndian.PutUint64(p.data[at:], acc)
			at += 8
			pend -= 64
			acc = uint64(v) >> (width - pend)
		}
	}
	if pend > 0 {
		binary.LittleEndian.PutUint64(p.data[at:], acc)
	}
	return p
}

func (p *packed) Len() int               { return p.m }
func (p *packed) Name() string           { return methodName(KindPacked, int(p.width)) }
func (p *packed) CheckpointBits() uint64 { return 0 }

func (p *packed) SizeBits() uint64 {
	return uint64(p.m)*uint64(p.width) + HeaderBits
}

func (p *packed) NewCursor() Cursor { return &packedCursor{p: p} }

// at reads the value at bit b. It has at most 32 bits and starts inside a
// byte, so the 8 bytes from its first hold it: one unaligned load. Only one
// starting in the payload's last 8 bytes has fewer, and lies in the last word.
func (p *packed) at(b uint64) uint32 {
	mask := uint64(1)<<p.width - 1
	k, last := int(b>>3), len(p.data)-8
	if k <= last {
		return uint32(binary.LittleEndian.Uint64(p.data[k:k+8]) >> (b & 7) & mask)
	}
	if last < 0 {
		return 0 // width 0: there is no payload
	}
	return uint32(binary.LittleEndian.Uint64(p.data[last:]) >> (b - uint64(last)*8) & mask)
}

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
	v := c.p.at(uint64(c.pos) * uint64(c.p.width))
	c.pos++
	return v
}

func (c *packedCursor) Prev() uint32 {
	if c.pos == 0 {
		panic("stream: Prev past start")
	}
	c.pos--
	return c.p.at(uint64(c.pos) * uint64(c.p.width))
}

func (c *packedCursor) NextN(dst []uint32) int {
	n := min(len(dst), c.p.m-c.pos)
	if n <= 0 {
		return 0
	}
	c.p.read(dst[:n], uint64(c.pos)*uint64(c.p.width), uint64(c.p.width))
	c.pos += n
	return n
}

func (c *packedCursor) PrevN(dst []uint32) int {
	n := min(len(dst), c.pos)
	if n <= 0 {
		return 0
	}
	c.p.read(dst[:n], uint64(c.pos-1)*uint64(c.p.width), -uint64(c.p.width))
	c.pos -= n
	return n
}

// read is NextN's and PrevN's kernel: dst[i] gets the value at bit b+i*step
// (mod 2^64: a negative step walks back). It inlines at's one-load path; an
// int offset and an 8-byte slice leave it one bounds check (20% a value).
func (p *packed) read(dst []uint32, b, step uint64) {
	data, mask, lim := p.data, uint64(1)<<p.width-1, len(p.data)-8
	for i := range dst {
		if k := int(b >> 3); k <= lim {
			dst[i] = uint32(binary.LittleEndian.Uint64(data[k:k+8]) >> (b & 7) & mask)
		} else {
			dst[i] = p.at(b)
		}
		b += step
	}
}

func (c *packedCursor) Seek(i int) {
	if i < 0 || i > c.p.m {
		panic(fmt.Sprintf("stream: seek to %d outside [0,%d]", i, c.p.m))
	}
	c.pos = i
	noteSeek(c.p.stats, false, 0)
}
