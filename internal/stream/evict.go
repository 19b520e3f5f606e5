package stream

import (
	"bytes"
	"sync"
	"sync/atomic"
)

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

// Evictable is a stream that can drop its decoded state and rebuild it on
// demand: it retains the exact serialized bytes Save wrote and decodes them
// (Load — full normalization, checkpoint rebuild) on first cursor touch,
// single-flight. Evict releases the decoded state again; the next touch
// re-decodes. The serialized bytes are the permanent residency floor, the
// decoded state (tables, entry-store copies, checkpoints) is what a
// byte-budgeted cache reclaims.
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

	// hooks and stats are set before the stream is shared (SetHooks,
	// AttachStats); neither write is synchronized with cursor traffic.
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

// NewEvictable turns a stream just returned by Scan, and not yet touched,
// into an evictable one. Only streams with a deferred decode (the predictor
// families) benefit from eviction; for materialized streams (verbatim, packed
// — their decoded form is their payload) it returns nil and the caller keeps
// the stream as is. The serialized bytes are copied: they are this stream's
// residency floor for as long as it lives, and a view would pin whatever
// buffer Scan was handed — for a container, the whole file.
func NewEvictable(s Stream) *Evictable {
	l, ok := s.(*lazyStream)
	if !ok {
		return nil
	}
	return &Evictable{raw: bytes.Clone(l.raw), spec: l.spec, m: l.m, size: l.size}
}

// SetHooks installs the residency observer. Call before the stream is
// shared across goroutines.
func (e *Evictable) SetHooks(h ResidencyHooks) { e.hooks = h }

// resident returns the decoded inner stream without loading, or nil.
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
func (e *Evictable) RawBytes() int { return len(e.raw) }

// acquire returns the decoded inner stream, decoding it if necessary. A
// decode failure — or a BeforeLoad veto — panics with a *DecodeError, the
// same contract as a lazy stream's first touch.
func (e *Evictable) acquire() Stream {
	if st := e.inner.Load(); st != nil {
		if e.hooks != nil {
			e.hooks.Touched(e)
		}
		return st.s
	}
	e.loadMu.Lock()
	defer e.loadMu.Unlock()
	if st := e.inner.Load(); st != nil {
		// Lost the race to a concurrent first touch: that load already
		// charged the cache, this touch is a hit.
		if e.hooks != nil {
			e.hooks.Touched(e)
		}
		return st.s
	}
	if e.hooks != nil {
		if err := e.hooks.BeforeLoad(e); err != nil {
			panic(&DecodeError{Stream: e.Name(), Cause: err})
		}
	}
	s, _, err := Load(e.raw)
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
// evicted (checkpoints do not exist then — mirrors lazyStream).
func (e *Evictable) CheckpointBits() uint64 {
	if s := e.resident(); s != nil {
		return s.CheckpointBits()
	}
	return 0
}

func (e *Evictable) NewCursor() Cursor { return e.acquire().NewCursor() }
