package stream

import (
	"fmt"
	"sync"
	"sync/atomic"

	"wet/internal/faultpoint"
)

// fpDecode injects deferred-decode failures at first touch, standing in
// for a forged store that passed structural validation.
var fpDecode = faultpoint.New("stream.decode")

// DecodeError is the typed failure of a deferred stream decode: a store
// forged to pass structural validation whose normalization walk failed at
// first touch. It is the panic value raised by Cursor-producing methods on
// a lazy stream (the Stream interface has no error returns) and the error
// returned by Force and TryNewCursor, which recover it.
type DecodeError struct {
	Stream string // method name of the failed stream
	Cause  error
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("stream: deferred decode of %s: %v", e.Stream, e.Cause)
}

func (e *DecodeError) Unwrap() error { return e.Cause }

// lazyStream defers a predictor-backed stream's decode — array conversion and
// the normalization traversal, the dominant cost of Load — until a cursor
// first touches it. The header facts a container parser needs up front
// (length, method, serialized size) were read structurally by Scan and
// answer without decoding; NewCursor Loads the retained bytes exactly once
// (sync.Once single-flight), so any number of goroutines can race on the
// first touch and all observe the one materialized stream. CheckpointBits
// reports 0 until the decode has run: checkpoints do not exist yet, and size
// accounting over a lazily opened container must not itself force every
// segment.
type lazyStream struct {
	spec Spec
	m    int
	size uint64

	once  sync.Once
	done  atomic.Bool
	raw   []byte // the bytes Scan validated; nil once materialized
	inner Stream
	err   *DecodeError

	// stats is forwarded to the inner stream when the decode runs; attach
	// (AttachStats) before the stream is shared across goroutines.
	stats *SeekCounters
}

// materialize runs the deferred decode (once) and returns the inner stream.
// A decode failure — a store forged to pass structural validation — panics
// with a *DecodeError; Force and TryNewCursor recover it into a returned
// error, and error-returning query entry points do the same.
func (l *lazyStream) materialize() Stream {
	l.once.Do(func() {
		if err := fpDecode.Hit(); err != nil {
			l.err = &DecodeError{Stream: l.Name(), Cause: err}
		} else if inner, _, err := Load(l.raw); err != nil {
			l.err = &DecodeError{Stream: l.Name(), Cause: err}
		} else {
			AttachStats(inner, l.stats)
			l.inner = inner
		}
		l.raw = nil
		l.done.Store(true)
	})
	if l.err != nil {
		panic(l.err)
	}
	return l.inner
}

// peek returns the materialized inner stream, or nil when the decode has
// not happened (or failed). It never forces, and is safe against a
// concurrent first touch: done is only stored after inner is written.
func (l *lazyStream) peek() Stream {
	if l.done.Load() && l.err == nil {
		return l.inner
	}
	return nil
}

func (l *lazyStream) Len() int         { return l.m }
func (l *lazyStream) SizeBits() uint64 { return l.size }
func (l *lazyStream) Name() string     { return l.spec.String() }

func (l *lazyStream) CheckpointBits() uint64 {
	if s := l.peek(); s != nil {
		return s.CheckpointBits()
	}
	return 0
}

func (l *lazyStream) NewCursor() Cursor { return l.materialize().NewCursor() }

// Materialized reports whether s is fully decoded: false for a stream
// returned by Scan whose first touch has not happened yet, and for an
// Evictable whose decoded state is dropped or was never built.
func Materialized(s Stream) bool {
	switch t := s.(type) {
	case *lazyStream:
		return t.peek() != nil
	case *Evictable:
		return t.Resident()
	}
	return true
}

// Force materializes a lazy or evictable stream now, converting a
// deferred-decode failure into its typed *DecodeError instead of the panic
// NewCursor raises. Other streams return nil immediately.
func Force(s Stream) (err error) {
	switch t := s.(type) {
	case *lazyStream:
		defer RecoverDecode(&err)
		t.materialize()
	case *Evictable:
		defer RecoverDecode(&err)
		t.acquire()
	}
	return nil
}

// TryNewCursor is NewCursor with the deferred-decode failure returned as a
// *DecodeError instead of panicking. Callers holding error returns should
// prefer it over Stream.NewCursor for streams that may be lazy.
func TryNewCursor(s Stream) (c Cursor, err error) {
	defer RecoverDecode(&err)
	return s.NewCursor(), nil
}

// RecoverDecode is a deferred helper that converts an in-flight
// *DecodeError panic into an assignment to *err, re-raising anything else.
// Error-returning entry points that walk possibly-lazy streams guard with
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
