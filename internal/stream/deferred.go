package stream

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"

	"wet/internal/faultpoint"
)

// fpDecode injects failures into every deferred decode — the first touch and
// each re-decode after an eviction — standing in for a forged store that
// passed structural validation.
var fpDecode = faultpoint.New("stream.decode")

// DecodeError is the typed failure of a deferred stream decode: a store
// forged to pass structural validation whose normalization walk failed at
// first touch, or a residency hook's veto. It is the panic value raised by
// NewCursor on a deferred stream (the Stream interface has no error returns)
// and the error returned by Force, which recovers it.
type DecodeError struct {
	Stream string // method name of the failed stream
	Cause  error
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("stream: deferred decode of %s: %v", e.Stream, e.Cause)
}

func (e *DecodeError) Unwrap() error { return e.Cause }

// ResidencyHooks observes and gates the decode lifecycle of an Evictable
// stream, letting a cache own the residency policy without the stream
// knowing about it. Hooks are invoked from whatever goroutine touches the
// stream; BeforeLoad and AfterLoad run under the stream's load mutex (so at
// most one pair is in flight per stream), Touched runs lock-free on the hit
// path. A hook must not touch the stream it is called for (Evict excepted —
// Evict is lock-free and safe from anywhere).
type ResidencyHooks interface {
	// BeforeLoad gates a decode about to run (a cache miss). Returning an
	// error aborts the touch: the caller's cursor spawn panics with a
	// *DecodeError carrying it, which error-returning query entry points
	// recover into their error result.
	BeforeLoad(e *Evictable) error
	// AfterLoad reports a completed decode and the decoded state's resident
	// weight in bytes (payload plus rebuilt checkpoints).
	AfterLoad(e *Evictable, weight uint64)
	// Touched reports a cursor spawn served by an already-resident decode
	// (a cache hit).
	Touched(e *Evictable)
}

// Evictable is the one deferred stream, what Scan returns for every
// predictor-backed stream: it holds the exact serialized bytes Encode wrote
// and decodes them (Load — array conversion, full normalization, checkpoint
// rebuild, the dominant cost of opening a container) when a cursor first
// touches it, single-flight, so any number of goroutines can race on the
// touch and all observe the one decoded stream. The header facts a container
// parser needs up front (length, method, serialized size) were read
// structurally by Scan and answer without decoding. Evict drops the decoded
// state again and the next touch re-decodes: the serialized bytes are the
// permanent residency floor, the decoded state (tables, entry-store copies,
// checkpoints) is what a byte-budgeted cache reclaims. A stream nobody
// evicts and nobody hooks is simply a lazy one.
//
// The bytes are a view of the buffer Scan was handed until Own copies them.
// They are kept after the decode either way — Encode of a deferred stream
// appends what it holds — so a view pins its buffer for the stream's life.
//
// A failed decode or a BeforeLoad veto is not cached: the touch panics with
// a *DecodeError and the next touch tries again.
//
// Eviction is safe against live cursors: a cursor holds a reference to the
// decoded inner stream it was spawned from, so evicting only unpins the
// stream — in-flight traversals keep their (immutable) stream alive until
// they drop it, and later touches decode a fresh copy.
type Evictable struct {
	raw  []byte
	spec Spec
	m    int
	size uint64

	// raw, hooks and stats are set before the stream is shared (Own,
	// SetHooks, AttachStats); none of the writes is synchronized with cursor
	// traffic.
	hooks ResidencyHooks
	stats *SeekCounters

	inner  atomic.Pointer[residentState]
	loadMu sync.Mutex // serializes the decode slow path
}

// residentState pairs a decoded stream with the weight it was admitted at,
// so eviction credits the cache exactly what loading debited.
type residentState struct {
	s      Stream
	weight uint64
}

// Own replaces the view of Scan's buffer with a private copy, for a stream
// that outlives the buffer's other users: a view would pin whatever Scan was
// handed — for a container, the whole file. Call before the stream is shared.
func (e *Evictable) Own() { e.raw = bytes.Clone(e.raw) }

// Own gives a stream Scan returned a private copy of the bytes it views (an
// Evictable's or a packed stream's); call it before the stream is shared.
func Own(s Stream) {
	switch t := s.(type) {
	case *Evictable:
		t.Own()
	case *packed:
		t.data = bytes.Clone(t.data)
	}
}

// SetHooks installs the residency observer. Call before the stream is
// shared across goroutines.
func (e *Evictable) SetHooks(h ResidencyHooks) { e.hooks = h }

// resident returns the decoded inner stream without loading, or nil. It is
// safe against a concurrent first touch or eviction.
func (e *Evictable) resident() Stream {
	if st := e.inner.Load(); st != nil {
		return st.s
	}
	return nil
}

// Resident reports whether the decoded state is currently held.
func (e *Evictable) Resident() bool { return e.inner.Load() != nil }

// ResidentBytes returns the decoded state's weight in bytes, or 0 when not
// resident.
func (e *Evictable) ResidentBytes() uint64 {
	if st := e.inner.Load(); st != nil {
		return st.weight
	}
	return 0
}

// RawBytes returns the size of the retained serialized form — the
// non-reclaimable floor of this stream.
func (e *Evictable) RawBytes() uint64 { return uint64(len(e.raw)) }

// acquire returns the decoded inner stream, decoding it if necessary.
func (e *Evictable) acquire() Stream {
	st := e.inner.Load()
	if st == nil {
		e.loadMu.Lock()
		defer e.loadMu.Unlock()
		if st = e.inner.Load(); st == nil {
			return e.decode()
		}
		// Lost the race to a concurrent first touch: that load already
		// charged the cache, this touch is a hit.
	}
	if e.hooks != nil {
		e.hooks.Touched(e)
	}
	return st.s
}

// decode runs the deferred Load under loadMu. A decode failure — a store
// forged to pass structural validation — or a BeforeLoad veto panics with a
// *DecodeError and leaves the stream as it was; Force recovers it into a
// returned error, and error-returning query entry points do the same.
func (e *Evictable) decode() Stream {
	var s Stream
	var err error
	if e.hooks != nil {
		err = e.hooks.BeforeLoad(e)
	}
	if err == nil {
		err = fpDecode.Hit()
	}
	if err == nil {
		s, _, err = Load(e.raw)
	}
	if err != nil {
		panic(&DecodeError{Stream: e.Name(), Cause: err})
	}
	AttachStats(s, e.stats)
	st := &residentState{s: s, weight: s.SizeBits()/8 + s.CheckpointBits()/8}
	e.inner.Store(st)
	if e.hooks != nil {
		e.hooks.AfterLoad(e, st.weight)
	}
	return s
}

// Evict drops the decoded state, returning the weight released (0 when it
// was not resident). Lock-free: safe to call from eviction paths that hold
// cache locks, concurrently with touches and live cursors. A touch racing
// the eviction either got the old state (its cursors stay valid) or will
// decode anew.
func (e *Evictable) Evict() uint64 {
	if st := e.inner.Swap(nil); st != nil {
		return st.weight
	}
	return 0
}

func (e *Evictable) Len() int         { return e.m }
func (e *Evictable) SizeBits() uint64 { return e.size }
func (e *Evictable) Name() string     { return e.spec.String() }

// CheckpointBits reports the decoded state's checkpoint overhead, 0 while
// not resident: checkpoints do not exist then, and size accounting over a
// lazily opened container must not itself force every segment.
func (e *Evictable) CheckpointBits() uint64 {
	if s := e.resident(); s != nil {
		return s.CheckpointBits()
	}
	return 0
}

func (e *Evictable) NewCursor() Cursor { return e.acquire().NewCursor() }

// Materialized reports whether s is fully decoded: false for a stream
// returned by Scan whose decoded state was never built or has been dropped.
func Materialized(s Stream) bool {
	e, deferred := s.(*Evictable)
	return !deferred || e.Resident()
}

// Force decodes a deferred stream now, converting a decode failure into its
// typed *DecodeError instead of the panic NewCursor raises. Other streams
// return nil immediately.
func Force(s Stream) (err error) {
	if e, deferred := s.(*Evictable); deferred {
		defer RecoverDecode(&err)
		e.acquire()
	}
	return nil
}

// RecoverDecode is a deferred helper that converts an in-flight
// *DecodeError panic into an assignment to *err, re-raising anything else.
// Error-returning entry points that walk possibly-deferred streams guard with
//
//	defer stream.RecoverDecode(&err)
func RecoverDecode(err *error) {
	switch p := recover().(type) {
	case nil:
	case *DecodeError:
		if *err == nil {
			*err = p
		}
	default:
		panic(p)
	}
}
