package core

import "wet/internal/stream"

// seek is the per-WET cursor-cost counter set; see AttachSeekCounters.

// AttachSeekCounters points every tier-2 stream of the WET — node timestamp
// streams and segments, group pattern and unique-value streams and
// segments, edge label streams and segments — at the counter set c, so all
// cursor seeks over this trace aggregate there (as well as in the
// deprecated process-wide counters). Lazy and evictable streams forward the
// attachment to decodes that happen later. Call before the WET is shared
// across goroutines; attaching twice re-points the accounting.
func (w *WET) AttachSeekCounters(c *stream.SeekCounters) {
	w.seek = c
	w.eachStream(func(s *stream.Stream) {
		if *s != nil {
			stream.AttachStats(*s, c)
		}
	})
}

// SeekCounters returns the counter set attached to this WET, or nil when
// none has been attached.
func (w *WET) SeekCounters() *stream.SeekCounters { return w.seek }
