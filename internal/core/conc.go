package core

import (
	"fmt"
	"math"

	"wet/internal/stream"
	"wet/internal/trace"
)

// Concurrency streams (DESIGN.md §9). A concurrent run extends the WET with
// three whole-run labeled stream families:
//
//   - per-thread timestamp streams: the global path timestamps each thread
//     issued, in ascending order. Together they partition 1..Time, so the
//     owning thread of any timestamp is recoverable by cursor walks alone.
//   - the sync-event stream family: one (ts, kind, thread, obj) record per
//     spawn / join / acquire / release, in timestamp order. Acquire and join
//     events carry the timestamp of the path that STARTS at the event (the
//     happens-before edge points at everything that path does); release and
//     spawn events carry the timestamp of the path that ENDS at the event.
//   - the shared-access stream family: one (ts, thread, addr, kind, stmt)
//     record per executed OpLoadSh/OpStoreSh, in timestamp order.
//
// Unlike the node/edge labels, concurrency streams are not epoch-segmented:
// they are tiny relative to the profile (one record per sync op or annotated
// access, not per statement) and the race checker walks them monotonically,
// so whole-run streams keep the cursor logic simple without disturbing the
// streaming pipeline's memory bound in practice.
//
// Single-threaded runs never activate any of this: WET.Conc stays nil and
// the serialized bytes are identical to a build that predates the feature.

// ConcStream is one concurrency label sequence in both representations:
// tier-1 raw values (nil on a streamed build or an opened file) and the
// tier-2 compressed stream (nil before Freeze).
type ConcStream struct {
	Raw []uint32
	S   stream.Stream
}

// Len returns the sequence length from whichever representation is present.
func (cs *ConcStream) Len() int {
	if cs.Raw != nil {
		return len(cs.Raw)
	}
	if cs.S != nil {
		return cs.S.Len()
	}
	return 0
}

// AccKind values (ConcStream Conc.AccKind).
const (
	// AccRead marks a shared read (OpLoadSh).
	AccRead = uint32(0)
	// AccWrite marks a shared write (OpStoreSh).
	AccWrite = uint32(1)
)

// Conc holds the concurrency streams of one run; nil on single-threaded
// WETs. The parallel Sync*/Acc* sequences are the same length and aligned
// record-wise (index i of each describes the same event).
type Conc struct {
	// ThreadTS[tid] is thread tid's ascending global-timestamp sequence.
	ThreadTS []*ConcStream

	// Sync event records, in timestamp order.
	SyncTS, SyncKind, SyncThread, SyncObj ConcStream

	// Shared-access records, in timestamp order.
	AccTS, AccThread, AccAddr, AccKind, AccStmt ConcStream
}

// NumThreads returns the number of threads observed (thread ids are dense
// from 0).
func (c *Conc) NumThreads() int { return len(c.ThreadTS) }

// SyncEvents returns the number of synchronization events recorded.
func (c *Conc) SyncEvents() int { return c.SyncTS.Len() }

// SharedAccesses returns the number of shared-memory access records.
func (c *Conc) SharedAccesses() int { return c.AccTS.Len() }

// fixed returns the non-per-thread streams in serialization order.
func (c *Conc) fixed() []*ConcStream {
	return []*ConcStream{
		&c.SyncTS, &c.SyncKind, &c.SyncThread, &c.SyncObj,
		&c.AccTS, &c.AccThread, &c.AccAddr, &c.AccKind, &c.AccStmt,
	}
}

// Streams enumerates every concurrency stream (per-thread timestamp streams
// first, then the sync and access families) for freeze, seek-counter, and
// serialization walks.
func (c *Conc) Streams() []*ConcStream {
	out := make([]*ConcStream, 0, len(c.ThreadTS)+9)
	out = append(out, c.ThreadTS...)
	return append(out, c.fixed()...)
}

// NamedConcStream pairs a concurrency stream with its display name.
type NamedConcStream struct {
	Name string
	CS   *ConcStream
}

var concFixedNames = []string{
	"sync.ts", "sync.kind", "sync.thread", "sync.obj",
	"acc.ts", "acc.thread", "acc.addr", "acc.kind", "acc.stmt",
}

// Named enumerates every concurrency stream with a display name, in the
// Streams order (wetdump and the verifier report these).
func (c *Conc) Named() []NamedConcStream {
	out := make([]NamedConcStream, 0, len(c.ThreadTS)+9)
	for tid, cs := range c.ThreadTS {
		out = append(out, NamedConcStream{Name: fmt.Sprintf("thread%d.ts", tid), CS: cs})
	}
	for i, cs := range c.fixed() {
		out = append(out, NamedConcStream{Name: concFixedNames[i], CS: cs})
	}
	return out
}

// ConcSeq returns a fresh detached cursor over one concurrency stream at the
// given tier, with the same concurrency contract as the other factories
// (fresh private state per call).
func (w *WET) ConcSeq(cs *ConcStream, tier Tier) Seq {
	if tier == Tier2 && cs.S == nil && cs.Raw == nil {
		// An empty stream of an unfrozen-but-restored WET: synthesize an
		// empty cursor rather than tripping the newSeq nil checks.
		return &sliceSeq{}
	}
	return newSeq(cs.Raw, cs.S, tier)
}

// ---------------------------------------------------------------------------
// Builder side (trace.ConcSink).

type pendSyncEvent struct {
	k   trace.SyncKind
	tid int32
	obj int64
}

type pendAccEvent struct {
	tid   int32
	addr  int64
	write bool
	stmt  int
}

// PathOwner implements trace.ConcSink: it names the thread owning the path
// whose PathDone follows. Called for every path of a run whose sink chain is
// concurrency-aware, including single-threaded runs — recording the id is
// unconditional, but no stream activates until a sync or shared-access event
// arrives.
func (b *Builder) PathOwner(tid int32) { b.concTid = tid }

// SyncEvent implements trace.ConcSink, buffering the event until the
// covering PathDone stamps it.
func (b *Builder) SyncEvent(k trace.SyncKind, tid int32, obj int64) {
	if b.err != nil {
		return
	}
	b.activateConc()
	b.pendSync = append(b.pendSync, pendSyncEvent{k: k, tid: tid, obj: obj})
}

// SharedAccess implements trace.ConcSink.
func (b *Builder) SharedAccess(tid int32, addr int64, isWrite bool, stmtID int) {
	if b.err != nil {
		return
	}
	b.activateConc()
	b.pendAcc = append(b.pendAcc, pendAccEvent{tid: tid, addr: addr, write: isWrite, stmt: stmtID})
}

// activateConc attaches the concurrency streams on the first sync or shared
// event. Every path sealed before activation belonged to thread 0 (no other
// thread can exist before the first spawn), so thread 0's timestamp stream
// is backfilled with the full ramp 1..time.
func (b *Builder) activateConc() {
	if b.w.Conc != nil {
		return
	}
	t0 := &ConcStream{}
	if b.time > 0 {
		t0.Raw = make([]uint32, b.time, b.time+16)
		for i := range t0.Raw {
			t0.Raw[i] = uint32(i) + 1
		}
	}
	b.w.Conc = &Conc{ThreadTS: []*ConcStream{t0}}
}

// concFlush stamps the buffered concurrency events with the timestamp just
// issued and appends it to the owning thread's timestamp stream. Called from
// flushPath after b.time has advanced; a no-op until activation.
func (b *Builder) concFlush() error {
	c := b.w.Conc
	if c == nil {
		return nil
	}
	tid := int(b.concTid)
	if tid < 0 {
		return fmt.Errorf("core: path owner thread id %d is negative", tid)
	}
	for tid >= len(c.ThreadTS) {
		c.ThreadTS = append(c.ThreadTS, &ConcStream{Raw: []uint32{}})
	}
	c.ThreadTS[tid].Raw = append(c.ThreadTS[tid].Raw, b.time)
	for i := range b.pendSync {
		ev := &b.pendSync[i]
		if ev.obj < 0 || ev.obj > math.MaxUint32 {
			return fmt.Errorf("core: sync %s object id %d outside uint32 range", ev.k, ev.obj)
		}
		c.SyncTS.Raw = append(c.SyncTS.Raw, b.time)
		c.SyncKind.Raw = append(c.SyncKind.Raw, uint32(ev.k))
		c.SyncThread.Raw = append(c.SyncThread.Raw, uint32(ev.tid))
		c.SyncObj.Raw = append(c.SyncObj.Raw, uint32(ev.obj))
	}
	b.pendSync = b.pendSync[:0]
	for i := range b.pendAcc {
		ev := &b.pendAcc[i]
		if ev.addr < 0 || ev.addr > math.MaxUint32 {
			return fmt.Errorf("core: shared access address %d outside uint32 range", ev.addr)
		}
		kind := AccRead
		if ev.write {
			kind = AccWrite
		}
		c.AccTS.Raw = append(c.AccTS.Raw, b.time)
		c.AccThread.Raw = append(c.AccThread.Raw, uint32(ev.tid))
		c.AccAddr.Raw = append(c.AccAddr.Raw, uint32(ev.addr))
		c.AccKind.Raw = append(c.AccKind.Raw, kind)
		c.AccStmt.Raw = append(c.AccStmt.Raw, uint32(ev.stmt))
	}
	b.pendAcc = b.pendAcc[:0]
	return nil
}

// ---------------------------------------------------------------------------
// Freeze / restore integration.

// concFreezeJobs submits one tier-2 compression job per concurrency stream
// (appended to the freeze job list; no report accounting — the concurrency
// streams are outside the paper's size tables, and the race bench reports
// their bytes separately).
func concFreezeJobs(c *Conc, jobs *[]func(sc *stream.Scratch)) {
	for _, cs := range c.Streams() {
		cs := cs
		*jobs = append(*jobs, func(sc *stream.Scratch) {
			cs.S = stream.CompressBestScratch(cs.Raw, sc)
		})
	}
}

// SizeBits sums the tier-2 compressed size of every concurrency stream (what
// the race checker's one-pass walk scans); 0 before the freeze.
func (c *Conc) SizeBits() uint64 {
	var bits uint64
	for _, cs := range c.Streams() {
		if cs.S != nil {
			bits += cs.S.SizeBits()
		}
	}
	return bits
}

// validateConc checks the concurrency stream invariants of a frozen WET:
// per-thread timestamp streams are strictly increasing and together
// partition 1..Time exactly; the sync record streams are aligned, timestamp-
// ordered, and reference known kinds and threads; the access record streams
// are aligned, timestamp-ordered, reference known threads and statements,
// and carry read/write kinds only.
func (w *WET) validateConc() error {
	c := w.Conc
	nThreads := c.NumThreads()
	if nThreads == 0 {
		return fmt.Errorf("core: conc present but holds no threads")
	}
	seen := make(map[uint32]bool, w.Time)
	for tid, cs := range c.ThreadTS {
		sq := w.ConcSeq(cs, Tier2)
		last := uint32(0)
		for i := 0; i < sq.Len(); i++ {
			ts := sq.Next()
			if ts <= last || ts > w.Time {
				return fmt.Errorf("core: thread %d timestamp %d out of order or range", tid, ts)
			}
			if seen[ts] {
				return fmt.Errorf("core: timestamp %d owned by two threads", ts)
			}
			seen[ts] = true
			last = ts
		}
	}
	if uint32(len(seen)) != w.Time {
		return fmt.Errorf("core: thread timestamp streams cover %d of %d timestamps", len(seen), w.Time)
	}

	checkAligned := func(what string, n int, streams []*ConcStream) error {
		for _, cs := range streams {
			if cs.Len() != n {
				return fmt.Errorf("core: %s record streams are misaligned (%d vs %d)", what, cs.Len(), n)
			}
		}
		return nil
	}
	nSync := c.SyncTS.Len()
	if err := checkAligned("sync", nSync, []*ConcStream{&c.SyncKind, &c.SyncThread, &c.SyncObj}); err != nil {
		return err
	}
	tsq := w.ConcSeq(&c.SyncTS, Tier2)
	kq := w.ConcSeq(&c.SyncKind, Tier2)
	thq := w.ConcSeq(&c.SyncThread, Tier2)
	last := uint32(0)
	for i := 0; i < nSync; i++ {
		ts, k, th := tsq.Next(), kq.Next(), thq.Next()
		if ts < last || ts == 0 || ts > w.Time {
			return fmt.Errorf("core: sync record %d timestamp %d out of order or range", i, ts)
		}
		last = ts
		if k > uint32(trace.SyncRelease) {
			return fmt.Errorf("core: sync record %d has unknown kind %d", i, k)
		}
		if int(th) >= nThreads {
			return fmt.Errorf("core: sync record %d names thread %d of %d", i, th, nThreads)
		}
	}
	nAcc := c.AccTS.Len()
	if err := checkAligned("access", nAcc, []*ConcStream{&c.AccThread, &c.AccAddr, &c.AccKind, &c.AccStmt}); err != nil {
		return err
	}
	tsq = w.ConcSeq(&c.AccTS, Tier2)
	thq = w.ConcSeq(&c.AccThread, Tier2)
	kq = w.ConcSeq(&c.AccKind, Tier2)
	sq := w.ConcSeq(&c.AccStmt, Tier2)
	last = 0
	for i := 0; i < nAcc; i++ {
		ts, th, k, st := tsq.Next(), thq.Next(), kq.Next(), sq.Next()
		if ts < last || ts == 0 || ts > w.Time {
			return fmt.Errorf("core: access record %d timestamp %d out of order or range", i, ts)
		}
		last = ts
		if int(th) >= nThreads {
			return fmt.Errorf("core: access record %d names thread %d of %d", i, th, nThreads)
		}
		if k != AccRead && k != AccWrite {
			return fmt.Errorf("core: access record %d has unknown kind %d", i, k)
		}
		if int(st) >= len(w.Prog.Stmts) {
			return fmt.Errorf("core: access record %d names statement %d of %d", i, st, len(w.Prog.Stmts))
		}
	}
	return nil
}
