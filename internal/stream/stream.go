// Package stream implements the paper's tier-2 generic compression: every
// stream of 32-bit profile values (timestamps, values, dependence-label
// halves) is compressed with a *bidirectional* value-predictor compressor
// that can be traversed one step at a time in either direction without
// decompressing the whole stream.
//
// A compressed stream is conceptually split into three parts (paper §4):
//
//	[FR 1..c] [window] [BL c+1..m]
//
// FR holds entries forward-compressed with *right* context, BL entries
// compressed with *left* context, and the window holds n uncompressed
// values. Stepping a cursor converts one FR entry into a BL entry or vice
// versa. The crucial trick making this exactly reversible: a miss entry
// stores the predictor table's *evicted* content while the table keeps the
// actual value, so every table mutation carries its own undo record, and the
// cursor state at a given position is identical no matter how it was
// reached.
//
// That path independence is what makes the access layer concurrency-safe:
// a Stream is an immutable artifact holding both entry stores in full (the
// FR store as it stands at position Len, the BL store as it stands at
// position 0) plus periodic state checkpoints, and every traversal happens
// through a detached Cursor that owns private predictor-table state. Any
// number of cursors can read one stream from any number of goroutines.
//
// Methods (paper's Selection step): FCM, differential FCM, last-n, and
// last-n stride, each in three context/table sizes, plus packed and a
// verbatim fallback. CompressBest picks, per stream, the method that
// performs best on a prefix.
package stream

import (
	"fmt"
	"strconv"
)

// Stream is an immutable, bidirectionally traversable compressed sequence
// of 32-bit values. A Stream carries no cursor state of its own: all
// traversal happens through detached cursors obtained from NewCursor. A
// frozen Stream is safe for concurrent use by any number of cursors.
type Stream interface {
	// Len returns the number of values in the stream.
	Len() int
	// SizeBits returns the storage size of the compressed stream in bits,
	// including predictor tables, the uncompressed window, and a fixed
	// header, as of construction time. Checkpoints are excluded (see
	// CheckpointBits).
	SizeBits() uint64
	// CheckpointBits returns the extra storage spent on seek checkpoints
	// (position/state snapshots recorded every K values), reported
	// separately from SizeBits because checkpoints are an access-time
	// accelerator, not part of the paper's compressed representation.
	CheckpointBits() uint64
	// Name identifies the compression method.
	Name() string
	// NewCursor returns a fresh independent cursor positioned at 0. Cursors
	// from one stream never share mutable state.
	NewCursor() Cursor
}

// Cursor is a detached read cursor over a Stream. The cursor sits between
// elements: Pos()==p means Next() returns element p. A Cursor owns its
// predictor-table reconstruction and is not safe for concurrent use, but
// distinct cursors over one stream are fully independent.
type Cursor interface {
	// Len returns the underlying stream's length.
	Len() int
	// Pos returns the cursor position in [0, Len()].
	Pos() int
	// Next returns the value at Pos() and advances the cursor. It panics if
	// the cursor is at the end.
	Next() uint32
	// Prev retreats the cursor and returns the value at the new position.
	// It panics if the cursor is at the start.
	Prev() uint32
	// Seek positions the cursor at p, restoring predictor state from the
	// nearest checkpoint (or the canonical start/end state) and stepping
	// the remainder, so the cost is O(checkpoint spacing) rather than
	// O(|p - Pos()|). It panics if p is outside [0, Len()].
	Seek(p int)
	// NextN decodes up to len(dst) values forward in one call: dst[i]
	// receives the value at position Pos()+i. It returns the count decoded
	// — min(len(dst), Len()-Pos()) — and advances the cursor past them.
	// Batching amortizes per-step dispatch and table-state loads over the
	// whole run, so hot sequential walks should prefer NextN with a
	// reusable buffer over per-element Next.
	NextN(dst []uint32) int
	// PrevN decodes up to len(dst) values backward in one call, in
	// traversal order: dst[i] receives the value at position Pos()-1-i. It
	// returns the count decoded — min(len(dst), Pos()) — and retreats the
	// cursor past them.
	PrevN(dst []uint32) int
}

// HeaderBits is the fixed per-stream metadata charge (method id + length).
const HeaderBits = 64

// At reads the value at index i through a throwaway cursor. Callers reading
// many positions should hold their own cursor and Seek it.
func At(s Stream, i int) uint32 {
	c := s.NewCursor()
	c.Seek(i)
	return c.Next()
}

// Spec selects a compression method.
type Spec struct {
	Kind  Kind
	Order int // FCM/dFCM context length (values), or last-n table size
}

// Kind enumerates tier-2 methods.
type Kind uint8

const (
	// KindVerbatim stores the stream raw (selection fallback).
	KindVerbatim Kind = iota
	// KindFCM is the bidirectional finite context method predictor.
	KindFCM
	// KindDFCM is the bidirectional differential FCM (predicts strides).
	KindDFCM
	// KindLastN is the bidirectional last-n (move-to-front) predictor.
	KindLastN
	// KindLastNStride is last-n over strides.
	KindLastNStride
	// KindPacked stores values at the smallest fixed bit width.
	KindPacked
)

func (s Spec) String() string {
	switch s.Kind {
	case KindVerbatim:
		return "verbatim"
	case KindFCM, KindDFCM, KindLastN, KindLastNStride:
		return methodName(s.Kind, s.Order)
	case KindPacked:
		return "packed"
	}
	return "unknown"
}

var methodPrefix = [...]string{KindFCM: "fcm", KindDFCM: "dfcm", KindLastN: "last", KindLastNStride: "lastS", KindPacked: "packed"}

// methodNames[k][n] is methodName(k, n), made once for the orders and
// packed widths streams use, so that naming a stream allocates nothing.
var methodNames = func() (t [len(methodPrefix)][33]string) {
	for k := range t {
		for n := range t[k] {
			t[k][n] = methodPrefix[k] + strconv.Itoa(n)
		}
	}
	return t
}()

// methodName is the name of a kind-k stream of order, or packed width, n.
func methodName(k Kind, n int) string {
	if n >= 0 && n < len(methodNames[k]) {
		return methodNames[k][n]
	}
	return methodPrefix[k] + strconv.Itoa(n)
}

// Compress builds an immutable compressed stream from vals with the given
// method, recording seek checkpoints at ckSpacing.
func Compress(vals []uint32, spec Spec) Stream {
	switch spec.Kind {
	case KindVerbatim:
		return newVerbatim(vals)
	case KindFCM:
		return newFCMEnc(vals, spec.Order, false).finish()
	case KindDFCM:
		return newFCMEnc(vals, spec.Order, true).finish()
	case KindLastN:
		return encodeLastN(vals, spec.Order, false)
	case KindLastNStride:
		return encodeLastN(vals, spec.Order, true)
	case KindPacked:
		return newPacked(vals)
	default:
		panic(fmt.Sprintf("stream: unknown kind %d", spec.Kind))
	}
}

// Candidates is the method pool used by CompressBest: the paper's four
// predictor families in three sizes each, plus the verbatim fallback.
var Candidates = []Spec{
	{KindVerbatim, 0},
	{KindPacked, 0},
	{KindFCM, 1}, {KindFCM, 2}, {KindFCM, 3},
	{KindDFCM, 1}, {KindDFCM, 2}, {KindDFCM, 3},
	{KindLastN, 2}, {KindLastN, 4}, {KindLastN, 8},
	{KindLastNStride, 2}, {KindLastNStride, 4}, {KindLastNStride, 8},
}

// SelectionPrefix is how many leading values each candidate compresses
// before the best method is chosen (the paper's "after a certain number of
// instances we pick the method that performs the best up to that point").
const SelectionPrefix = 4096

// CompressBest compresses vals with every candidate on a prefix, picks the
// method with the smallest compressed size, and compresses the full stream
// with it.
//
// The selection phase sizes the fourteen candidates with pooled scratch
// state instead of building and discarding fourteen streams; callers
// running many compressions on one goroutine should hold their own Scratch
// and call CompressBestScratch directly.
func CompressBest(vals []uint32) Stream {
	sc := scratchPool.Get().(*Scratch)
	s := CompressBestScratch(vals, sc)
	scratchPool.Put(sc)
	return s
}
