package stream

import (
	"fmt"
	"sync/atomic"
)

// Checkpoints trade space for seek time: a checkpoint snapshots the full
// cursor state (entry-store lengths plus predictor tables/window) at one
// position, so Seek(i) restores the nearest snapshot and steps at most the
// spacing instead of walking from the current position. Two states come for
// free and are always available: position 0 (tables are canonically
// all-zero there, except the BL table which the stream stores anyway) and
// position Len (the construction-end state, kept as the last checkpoint).

// DefaultCheckpointK is the minimum checkpoint spacing (in values). The
// spacing is widened beyond this floor for methods with large predictor
// tables so that total checkpoint storage stays below ~25% of the raw
// (uncompressed) stream.
const DefaultCheckpointK = 1024

// ckSpacing returns the checkpoint spacing for a stream of m values whose
// per-checkpoint state costs stateBits (0: no interior checkpoints).
func ckSpacing(m int, stateBits uint64) int {
	if m == 0 || stateBits == 0 {
		return 0
	}
	// Budget: all interior checkpoints together may cost at most 25% of the
	// raw 32-bit stream (m*8 bits).
	maxCks := uint64(m) * 8 / stateBits
	if maxCks == 0 {
		return 0
	}
	sp := (m + int(maxCks) - 1) / int(maxCks)
	if sp < DefaultCheckpointK {
		sp = DefaultCheckpointK
	}
	return sp
}

// restoreCost converts a checkpoint restore (copying stateWords words of
// table state) into step-equivalents, so Seek can compare "jump to a
// checkpoint and walk" against "walk from where the cursor is". Copying is
// roughly 8 words per step-equivalent.
func restoreCost(stateWords int) int { return stateWords/8 + 1 }

// ckCursor is a cursor over a stream with checkpoints (last-n and FCM).
type ckCursor interface {
	Cursor
	// restoreNear restores the checkpoint i is cheapest to reach from, if
	// restoring and walking from it costs fewer step-equivalents than walk.
	restoreNear(i, walk int) bool
}

// seekBatch is how many values a Seek walk decodes per NextN/PrevN call.
const seekBatch = 64

// startSeek is the shared half of a checkpointed cursor's Seek: it checks i,
// restores a checkpoint when that beats walking from Pos, and counts the seek
// with the steps left to walk. Each Seek then walks them itself: last-n in
// seekBatch batches through NextN/PrevN into a stack buffer (handed through
// an interface, the buffer would escape to the heap), FCM by single steps.
func startSeek(c ckCursor, i int, stats *SeekCounters) {
	if i < 0 || i > c.Len() {
		panic(fmt.Sprintf("stream: seek to %d outside [0,%d]", i, c.Len()))
	}
	restored := i != c.Pos() && c.restoreNear(i, dist(i, c.Pos()))
	noteSeek(stats, restored, dist(i, c.Pos()))
}

func dist(a, b int) int { return max(a-b, b-a) }

// SeekStats is a snapshot of cumulative seek-cost counters.
// Counters are cumulative; CLI consumers print deltas around a query.
type SeekStats struct {
	// Seeks counts Seek invocations.
	Seeks uint64
	// Restores counts seeks served by restoring a checkpoint or a canonical
	// start/end state (as opposed to stepping from the current position).
	Restores uint64
	// Steps counts single-value cursor steps walked on behalf of seeks.
	Steps uint64
}

// Sub returns the counter deltas s - before, for bracketing a query with
// two ReadSeekStats calls.
func (s SeekStats) Sub(before SeekStats) SeekStats {
	return SeekStats{
		Seeks:    s.Seeks - before.Seeks,
		Restores: s.Restores - before.Restores,
		Steps:    s.Steps - before.Steps,
	}
}

// SeekCounters is an attachable per-stream seek-cost sink. A counter set is
// shared by every stream it is attached to (AttachStats), so one set per
// trace — or per corpus — aggregates exactly the seeks spent on that trace's
// cursors. All fields are atomics: cursors on many goroutines update one set
// without synchronization.
type SeekCounters struct {
	seeks    atomic.Uint64
	restores atomic.Uint64
	steps    atomic.Uint64
}

// Read returns a snapshot of the counters.
func (c *SeekCounters) Read() SeekStats {
	return SeekStats{
		Seeks:    c.seeks.Load(),
		Restores: c.restores.Load(),
		Steps:    c.steps.Load(),
	}
}

func (c *SeekCounters) note(restored bool, steps int) {
	c.seeks.Add(1)
	if restored {
		c.restores.Add(1)
	}
	if steps > 0 {
		c.steps.Add(uint64(steps))
	}
}

// AttachStats points s's seek accounting at c (nil detaches). A deferred
// stream forwards the attachment to its decoded inner stream, including
// decodes that happen later. Attach before the stream is shared
// across goroutines: the attachment itself is not synchronized with
// concurrent cursor traffic.
func AttachStats(s Stream, c *SeekCounters) {
	switch t := s.(type) {
	case *verbatim:
		t.stats = c
	case *packed:
		t.stats = c
	case *fcmStream:
		t.stats = c
	case *lastNStream:
		t.stats = c
	case *Evictable:
		t.stats = c
		if inner := t.resident(); inner != nil {
			AttachStats(inner, c)
		}
	}
}

// StatsOf returns the counter set attached to s, or nil.
func StatsOf(s Stream) *SeekCounters {
	switch t := s.(type) {
	case *verbatim:
		return t.stats
	case *packed:
		return t.stats
	case *fcmStream:
		return t.stats
	case *lastNStream:
		return t.stats
	case *Evictable:
		return t.stats
	}
	return nil
}

// The process-wide aggregate counters behind ReadSeekStats. Per-stream
// attachments update these too, so the global view stays a true
// superset of every per-trace set.
var globalSeekStats SeekCounters

// ReadSeekStats returns the cumulative process-wide seek statistics, for
// single-trace CLIs and tests. The aggregate conflates every trace served
// from one process: multi-trace code attaches a SeekCounters per trace
// (AttachStats) and reads that instead.
func ReadSeekStats() SeekStats {
	return globalSeekStats.Read()
}

func noteSeek(c *SeekCounters, restored bool, steps int) {
	globalSeekStats.note(restored, steps)
	if c != nil {
		c.note(restored, steps)
	}
}
