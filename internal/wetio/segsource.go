package wetio

import (
	"sync"

	"wet/internal/stream"
)

// SegmentSource indexes the individually-decodable label streams of a
// loaded container. When LoadOptions.Segments is set, a strict load of any
// version validates every stream structurally but decodes none: each
// predictor-backed stream comes back as a *stream.Evictable owning its exact
// serialized bytes, decoded on first cursor touch and re-decodable after
// eviction. The source is the handle a cache uses to enumerate the
// container's segments, install residency hooks, and account residency.
//
// For a v4 container each entry is one epoch segment (the residency grain
// the epoch-segmented format was built for); for a v2 or v3 container each
// entry is one whole-run stream. Verbatim and packed streams — whose decoded
// form is their payload, with no normalization cost to reclaim — are not
// indexed (packed ones read their own copy of the payload in place).
//
// Registration happens concurrently from the section-decode worker pool, so
// entry order is unspecified.
type SegmentSource struct {
	mu   sync.Mutex
	segs []Segment
}

// Segment is one evictable stream of the container.
type Segment struct {
	// Owner names the record the stream belongs to ("node 12", "edge 480").
	Owner string
	// Epoch is the segment's epoch, or -1 for a whole-run (v2/v3) stream.
	Epoch int
	// Ev is the stream itself, registered in the owning WET's node/edge
	// tables and shared with every cursor over it.
	Ev *stream.Evictable
}

// NewSegmentSource returns an empty source to pass in LoadOptions.Segments.
func NewSegmentSource() *SegmentSource { return &SegmentSource{} }

func (ss *SegmentSource) add(owner string, epoch int, ev *stream.Evictable) {
	ss.mu.Lock()
	ss.segs = append(ss.segs, Segment{Owner: owner, Epoch: epoch, Ev: ev})
	ss.mu.Unlock()
}

// Len returns the number of indexed segments.
func (ss *SegmentSource) Len() int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return len(ss.segs)
}

// Segments returns a copy of the index.
func (ss *SegmentSource) Segments() []Segment {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return append([]Segment(nil), ss.segs...)
}

// SetHooks installs h on every indexed segment. Call after the load
// completes and before the trace is shared across goroutines.
func (ss *SegmentSource) SetHooks(h stream.ResidencyHooks) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	for _, sg := range ss.segs {
		sg.Ev.SetHooks(h)
	}
}

// sum adds f over every indexed segment, under the index lock.
func (ss *SegmentSource) sum(f func(*stream.Evictable) uint64) uint64 {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	var b uint64
	for _, sg := range ss.segs {
		b += f(sg.Ev)
	}
	return b
}

// ResidentCount returns how many segments currently hold decoded state.
func (ss *SegmentSource) ResidentCount() int {
	return int(ss.sum(func(ev *stream.Evictable) uint64 {
		if ev.Resident() {
			return 1
		}
		return 0
	}))
}

// ResidentBytes sums the decoded weight of the resident segments.
func (ss *SegmentSource) ResidentBytes() uint64 { return ss.sum((*stream.Evictable).ResidentBytes) }

// RawBytes sums the retained serialized bytes — the source's permanent
// residency floor.
func (ss *SegmentSource) RawBytes() uint64 { return ss.sum((*stream.Evictable).RawBytes) }

// EvictAll drops every decoded segment, returning the bytes released.
func (ss *SegmentSource) EvictAll() uint64 { return ss.sum((*stream.Evictable).Evict) }
