package wire

import (
	"io"
	"slices"
	"testing"
)

func TestDecWalksLittleEndian(t *testing.T) {
	b := []byte{
		0x07,
		0x01, 0x02, 0x03, 0x04,
		0xff, 0xff, 0xff, 0xff,
		0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
		0x02, 0x00, 0x00, 0x00, // count of two u32s
		0x0a, 0x00, 0x00, 0x00, 0x0b, 0x00, 0x00, 0x00,
		0x11, 0, 0, 0, 0, 0, 0, 0,
		'o', 'k',
	}
	d := NewDec(b)
	if v := d.U8(); v != 7 {
		t.Fatalf("U8 = %d", v)
	}
	if v := d.U32(); v != 0x04030201 {
		t.Fatalf("U32 = %#x", v)
	}
	if v := d.I32(); v != -1 {
		t.Fatalf("I32 = %d", v)
	}
	if v := d.U64(); v != 0x0102030405060708 {
		t.Fatalf("U64 = %#x", v)
	}
	if got := d.U32s(d.Count(4)); !slices.Equal(got, []uint32{10, 11}) {
		t.Fatalf("U32s = %v", got)
	}
	if got := d.U64s(1); !slices.Equal(got, []uint64{0x11}) {
		t.Fatalf("U64s = %v", got)
	}
	if d.Offset() != len(b)-2 || d.Remaining() != 2 || string(d.Rest()) != "ok" {
		t.Fatalf("at offset %d with %d left (%q)", d.Offset(), d.Remaining(), d.Rest())
	}
	if got := d.Bytes(2); string(got) != "ok" || cap(got) != 2 {
		t.Fatalf("Bytes = %q (cap %d)", got, cap(got))
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("err %v, %d left", d.Err(), d.Remaining())
	}
}

// TestDecShortReadSticks: the first read past the end records
// io.ErrUnexpectedEOF, leaves nothing to read, and every later getter returns
// zero — a count included, so a loop it drives does not run.
func TestDecShortReadSticks(t *testing.T) {
	for name, read := range map[string]func(*Dec){
		"U32":   func(d *Dec) { d.U32() },
		"U64":   func(d *Dec) { d.U64() },
		"Bytes": func(d *Dec) { d.Bytes(4) },
		"U32s":  func(d *Dec) { d.U32s(1) },
		"U64s":  func(d *Dec) { d.U64s(1) },
		"neg":   func(d *Dec) { d.Bytes(-1) },
	} {
		d := NewDec([]byte{1, 2, 3})
		read(d)
		if d.Err() != io.ErrUnexpectedEOF || d.Remaining() != 0 {
			t.Fatalf("%s: err %v with %d left", name, d.Err(), d.Remaining())
		}
		if d.U8() != 0 || d.U32() != 0 || d.U64() != 0 || d.Count(1) != 0 || d.U32s(1) != nil {
			t.Fatalf("%s: a getter returned data after the short read", name)
		}
	}
	if d := NewDec(nil); d.U8() != 0 || d.Err() != io.ErrUnexpectedEOF {
		t.Fatal("empty input did not fail its first read")
	}
}

// TestDecCountBoundedByInput: a count the remaining bytes cannot hold fails
// like a short read, before anything is sized from it.
func TestDecCountBoundedByInput(t *testing.T) {
	d := NewDec([]byte{3, 0, 0, 0, 9, 9, 9, 9, 9, 9, 9, 9})
	if n := d.Count(4); n != 0 || d.Err() != io.ErrUnexpectedEOF {
		t.Fatalf("Count(4) = %d, err %v: three 4-byte elements do not fit in 8 bytes", n, d.Err())
	}
	d = NewDec([]byte{2, 0, 0, 0, 9, 9, 9, 9, 9, 9, 9, 9})
	if n := d.Count(4); n != 2 || d.Err() != nil {
		t.Fatalf("Count(4) = %d, err %v", n, d.Err())
	}
	d = NewDec([]byte{0xff, 0xff, 0xff, 0xff})
	if got := d.U32s(1 << 28); got != nil || d.Err() != io.ErrUnexpectedEOF {
		t.Fatal("an array the input cannot hold was not refused")
	}
}

// TestDecSkim: a skimming decoder consumes and bounds-checks arrays without
// decoding them.
func TestDecSkim(t *testing.T) {
	d := NewDec(make([]byte, 24))
	d.Skim = true
	if d.U32s(2) != nil || d.U64s(2) != nil || d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("skim left %d bytes, err %v", d.Remaining(), d.Err())
	}
	d = NewDec(make([]byte, 7))
	d.Skim = true
	if d.U64s(1); d.Err() != io.ErrUnexpectedEOF {
		t.Fatal("skim did not bounds-check the array")
	}
}
