// Package racecheck detects data races directly on the compressed
// concurrency streams of a WET (DESIGN.md §9). It never rebuilds a
// per-event trace in memory: the sync-event and shared-access stream
// families are merge-walked once through detached cursors (core.WET.ConcSeq),
// so at tier 2 the working set is the cursor state plus per-address
// frontier summaries — the same access discipline the other queries use,
// provable with stream.ReadSeekStats.
//
// Three rules are reported:
//
//	RC001 — write-write race: two writes to the same shared word by
//	        different threads, unordered by happens-before.
//	RC002 — read-write race: a read and a write to the same shared word by
//	        different threads, unordered by happens-before.
//	RC003 — lockset-only candidate: the pair IS happens-before ordered, but
//	        only through lock release/acquire timing (not by the fork-join
//	        structure), and the two accesses hold no lock in common. The
//	        ordering is a property of this schedule, not of the program, so
//	        the pair is reported as a candidate rather than a definite race.
//
// Happens-before is computed with per-thread vector clocks indexed by the
// WET's global path timestamps: spawn edges carry the parent's clock into
// the child, join edges carry the child's final clock back, and lock
// release/acquire pairs transfer a per-lock clock. A second clock family
// tracks the fork-join edges alone, separating RC003 candidates from
// structurally ordered pairs.
package racecheck

import (
	"fmt"
	"sort"

	"wet/internal/core"
	"wet/internal/trace"
)

// Rule identifiers.
const (
	RuleWriteWrite = "RC001"
	RuleReadWrite  = "RC002"
	RuleLockset    = "RC003"
)

// RuleDoc maps each rule identifier to its one-line description (wetlint
// and the CI job print these).
var RuleDoc = map[string]string{
	RuleWriteWrite: "write-write race: concurrent unordered writes to one shared word",
	RuleReadWrite:  "read-write race: concurrent unordered read and write of one shared word",
	RuleLockset:    "lockset candidate: pair ordered only by lock timing and holds no common lock",
}

// Access is one endpoint of a reported race: the witness timestamp pins the
// exact path execution in the trace, so the access can be replayed with the
// ordinary time-travel queries.
type Access struct {
	Thread int32  // executing thread
	TS     uint32 // global path timestamp of the access
	Stmt   int    // program statement (index into Program.Stmts)
	Write  bool   // write access (else read)
}

// Race is one reported finding. First and Second are ordered by timestamp;
// on RC001/RC002 the two accesses are concurrent (the timestamps reflect
// this schedule only), on RC003 First happens-before Second through lock
// timing alone.
type Race struct {
	Rule          string
	Addr          uint32 // shared memory word
	First, Second Access
}

func (r Race) String() string {
	k1, k2 := "R", "R"
	if r.First.Write {
		k1 = "W"
	}
	if r.Second.Write {
		k2 = "W"
	}
	return fmt.Sprintf("%s addr=%d %s(t%d ts=%d stmt=%d) vs %s(t%d ts=%d stmt=%d)",
		r.Rule, r.Addr,
		k1, r.First.Thread, r.First.TS, r.First.Stmt,
		k2, r.Second.Thread, r.Second.TS, r.Second.Stmt)
}

// Report is the result of one race check.
type Report struct {
	// Concurrent is false when the trace has no concurrency streams
	// (single-threaded run or pre-concurrency file); every other field is
	// zero then.
	Concurrent     bool
	Threads        int
	SyncEvents     int
	SharedAccesses int
	// Races holds the deduplicated findings (one per rule, address and
	// statement pair), ordered by the second access's timestamp.
	Races []Race
	// CompressedBits is the tier-2 size of the concurrency streams the
	// check walked (the denominator of the bytes-scanned benchmark ratio);
	// 0 when the WET is not frozen.
	CompressedBits uint64
}

// Racy reports whether any definite race (RC001/RC002) was found.
func (r *Report) Racy() bool {
	for _, rc := range r.Races {
		if rc.Rule != RuleLockset {
			return true
		}
	}
	return false
}

// Count returns the number of findings for one rule.
func (r *Report) Count(rule string) int {
	n := 0
	for _, rc := range r.Races {
		if rc.Rule == rule {
			n++
		}
	}
	return n
}

// vc is a vector clock: vc[u] is the latest global timestamp of thread u
// known to happen-before the owner's current point.
type vc []uint32

func (a vc) join(b vc) {
	for i, v := range b {
		if v > a[i] {
			a[i] = v
		}
	}
}

func (a vc) clone() vc {
	out := make(vc, len(a))
	copy(out, a)
	return out
}

// accRec summarizes the latest access of one kind by one thread to one
// address: enough to detect and witness a race against any later access
// (earlier same-thread accesses are program-ordered before it, so any race
// they participate in is also a race of this one).
type accRec struct {
	ts      uint32
	stmt    int
	lockset []uint32 // sorted snapshot of locks held
}

// cell is the per-address frontier: latest write and latest read per thread.
type cell struct {
	lastW, lastR []accRec // indexed by thread; ts == 0 means none
}

// syncRec / accEvt are one decoded record of the respective stream family.
type syncRec struct {
	ts, obj uint32
	kind    trace.SyncKind
	tid     int32
}

type accEvt struct {
	ts, addr, stmt uint32
	tid            int32
	write          bool
}

// checker carries the walk state.
type checker struct {
	w        *core.WET
	nThreads int

	clocks []vc // full happens-before clocks, per thread
	fj     []vc // fork-join-only clocks, per thread

	lockClock map[uint32]vc      // per-lock release clock
	held      map[int32][]uint32 // per-thread sorted lockset
	cells     map[uint32]*cell   // per-address access frontier
	seen      map[raceKey]bool   // dedup
	races     []Race
}

type raceKey struct {
	rule         string
	addr         uint32
	stmt1, stmt2 int
}

// Check walks the concurrency streams of w at the given tier and returns
// the race report. A WET without concurrency streams yields a report with
// Concurrent == false and no findings. Tier 1 reads the raw slices only a
// single-epoch build keeps: on a streamed build or an opened file it
// returns a *core.CapabilityError (core.CapTier1). Tier 2 walks the
// compressed streams through fresh detached cursors and is safe for
// concurrent use with other queries; a lazily opened stream whose deferred
// decode fails returns its *stream.DecodeError.
func Check(w *core.WET, tier core.Tier) (rep *Report, err error) {
	defer core.RecoverTyped(&err)
	c := w.Conc
	if c == nil {
		return &Report{}, nil
	}
	rep = &Report{
		Concurrent:     true,
		Threads:        c.NumThreads(),
		SyncEvents:     c.SyncEvents(),
		SharedAccesses: c.SharedAccesses(),
		CompressedBits: c.SizeBits(),
	}
	ck := &checker{
		w:         w,
		nThreads:  c.NumThreads(),
		clocks:    make([]vc, c.NumThreads()),
		fj:        make([]vc, c.NumThreads()),
		lockClock: map[uint32]vc{},
		held:      map[int32][]uint32{},
		cells:     map[uint32]*cell{},
		seen:      map[raceKey]bool{},
	}
	for i := range ck.clocks {
		ck.clocks[i] = make(vc, ck.nThreads)
		ck.fj[i] = make(vc, ck.nThreads)
	}

	// The two record families are each timestamp-ordered; merge them with
	// the intra-timestamp kind order the builder documents: acquire/join
	// events start the path (phase 0), its accesses follow (phase 1),
	// release/spawn events end it (phase 2).
	sync := newSyncReader(w, tier)
	acc := newAccReader(w, tier)
	for sync.ok || acc.ok {
		if sync.ok && (!acc.ok || less(sync.cur.ts, syncPhase(sync.cur.kind), acc.cur.ts, 1)) {
			if err := ck.applySync(sync.cur); err != nil {
				return nil, err
			}
			sync.advance()
		} else {
			if err := ck.applyAccess(acc.cur); err != nil {
				return nil, err
			}
			acc.advance()
		}
	}

	sort.Slice(ck.races, func(i, j int) bool {
		a, b := ck.races[i], ck.races[j]
		if a.Second.TS != b.Second.TS {
			return a.Second.TS < b.Second.TS
		}
		if a.First.TS != b.First.TS {
			return a.First.TS < b.First.TS
		}
		if a.Addr != b.Addr {
			return a.Addr < b.Addr
		}
		return a.Rule < b.Rule
	})
	rep.Races = ck.races
	return rep, nil
}

func syncPhase(k trace.SyncKind) int {
	if k == trace.SyncAcquire || k == trace.SyncJoin {
		return 0
	}
	return 2
}

func less(ts1 uint32, ph1 int, ts2 uint32, ph2 int) bool {
	if ts1 != ts2 {
		return ts1 < ts2
	}
	return ph1 < ph2
}

func (ck *checker) tick(tid int32, ts uint32) error {
	if int(tid) < 0 || int(tid) >= ck.nThreads {
		return fmt.Errorf("racecheck: record names thread %d of %d", tid, ck.nThreads)
	}
	ck.clocks[tid][tid] = ts
	ck.fj[tid][tid] = ts
	return nil
}

func (ck *checker) applySync(ev syncRec) error {
	if err := ck.tick(ev.tid, ev.ts); err != nil {
		return err
	}
	switch ev.kind {
	case trace.SyncSpawn:
		child := int(ev.obj)
		if child < 0 || child >= ck.nThreads {
			return fmt.Errorf("racecheck: spawn names thread %d of %d", child, ck.nThreads)
		}
		ck.clocks[child].join(ck.clocks[ev.tid])
		ck.fj[child].join(ck.fj[ev.tid])
	case trace.SyncJoin:
		child := int(ev.obj)
		if child < 0 || child >= ck.nThreads {
			return fmt.Errorf("racecheck: join names thread %d of %d", child, ck.nThreads)
		}
		ck.clocks[ev.tid].join(ck.clocks[child])
		ck.fj[ev.tid].join(ck.fj[child])
	case trace.SyncAcquire:
		if lc, ok := ck.lockClock[ev.obj]; ok {
			ck.clocks[ev.tid].join(lc)
		}
		ck.held[ev.tid] = insertLock(ck.held[ev.tid], ev.obj)
	case trace.SyncRelease:
		ck.lockClock[ev.obj] = ck.clocks[ev.tid].clone()
		ck.held[ev.tid] = removeLock(ck.held[ev.tid], ev.obj)
	default:
		return fmt.Errorf("racecheck: unknown sync kind %d", ev.kind)
	}
	return nil
}

func (ck *checker) applyAccess(ev accEvt) error {
	if err := ck.tick(ev.tid, ev.ts); err != nil {
		return err
	}
	cl := ck.cells[ev.addr]
	if cl == nil {
		cl = &cell{lastW: make([]accRec, ck.nThreads), lastR: make([]accRec, ck.nThreads)}
		ck.cells[ev.addr] = cl
	}
	ls := ck.held[ev.tid]
	for u := 0; u < ck.nThreads; u++ {
		if int32(u) == ev.tid {
			continue
		}
		// A write conflicts with earlier writes and reads; a read only with
		// earlier writes.
		if prev := cl.lastW[u]; prev.ts != 0 {
			ck.checkPair(ev, int32(u), prev, true)
		}
		if ev.write {
			if prev := cl.lastR[u]; prev.ts != 0 {
				ck.checkPair(ev, int32(u), prev, false)
			}
		}
	}
	rec := accRec{ts: ev.ts, stmt: int(ev.stmt), lockset: ls}
	if ev.write {
		cl.lastW[ev.tid] = rec
	} else {
		cl.lastR[ev.tid] = rec
	}
	return nil
}

// checkPair classifies the (prev access by thread u, current access ev)
// pair: unordered → RC001/RC002; ordered only through lock timing with
// disjoint locksets → RC003.
func (ck *checker) checkPair(ev accEvt, u int32, prev accRec, prevWrite bool) {
	hb := ck.clocks[ev.tid][u] >= prev.ts
	if !hb {
		rule := RuleReadWrite
		if prevWrite && ev.write {
			rule = RuleWriteWrite
		}
		ck.report(rule, ev, u, prev, prevWrite)
		return
	}
	fjOrdered := ck.fj[ev.tid][u] >= prev.ts
	if !fjOrdered && !intersect(prev.lockset, ck.held[ev.tid]) {
		ck.report(RuleLockset, ev, u, prev, prevWrite)
	}
}

func (ck *checker) report(rule string, ev accEvt, u int32, prev accRec, prevWrite bool) {
	key := raceKey{rule: rule, addr: ev.addr, stmt1: prev.stmt, stmt2: int(ev.stmt)}
	if ck.seen[key] {
		return
	}
	ck.seen[key] = true
	ck.races = append(ck.races, Race{
		Rule: rule,
		Addr: ev.addr,
		First: Access{
			Thread: u, TS: prev.ts, Stmt: prev.stmt, Write: prevWrite,
		},
		Second: Access{
			Thread: ev.tid, TS: ev.ts, Stmt: int(ev.stmt), Write: ev.write,
		},
	})
}

// insertLock / removeLock keep per-thread locksets as sorted immutable
// slices: every mutation copies, so accRec snapshots stay valid without a
// per-access copy.
func insertLock(ls []uint32, l uint32) []uint32 {
	i := sort.Search(len(ls), func(i int) bool { return ls[i] >= l })
	if i < len(ls) && ls[i] == l {
		return ls
	}
	out := make([]uint32, 0, len(ls)+1)
	out = append(out, ls[:i]...)
	out = append(out, l)
	return append(out, ls[i:]...)
}

func removeLock(ls []uint32, l uint32) []uint32 {
	i := sort.Search(len(ls), func(i int) bool { return ls[i] >= l })
	if i >= len(ls) || ls[i] != l {
		return ls
	}
	out := make([]uint32, 0, len(ls)-1)
	out = append(out, ls[:i]...)
	return append(out, ls[i+1:]...)
}

func intersect(a, b []uint32) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// syncReader decodes the sync-event record stream family through one
// detached cursor per component stream.
type syncReader struct {
	ts, kind, tid, obj core.Seq
	n, i               int
	cur                syncRec
	ok                 bool
}

func newSyncReader(w *core.WET, tier core.Tier) *syncReader {
	c := w.Conc
	r := &syncReader{
		ts:   w.ConcSeq(&c.SyncTS, tier),
		kind: w.ConcSeq(&c.SyncKind, tier),
		tid:  w.ConcSeq(&c.SyncThread, tier),
		obj:  w.ConcSeq(&c.SyncObj, tier),
		n:    c.SyncEvents(),
	}
	r.advance()
	return r
}

func (r *syncReader) advance() {
	if r.i >= r.n {
		r.ok = false
		return
	}
	r.i++
	r.cur = syncRec{
		ts:   r.ts.Next(),
		kind: trace.SyncKind(r.kind.Next()),
		tid:  int32(r.tid.Next()),
		obj:  r.obj.Next(),
	}
	r.ok = true
}

// accReader decodes the shared-access record stream family.
type accReader struct {
	ts, tid, addr, kind, stmt core.Seq
	n, i                      int
	cur                       accEvt
	ok                        bool
}

func newAccReader(w *core.WET, tier core.Tier) *accReader {
	c := w.Conc
	r := &accReader{
		ts:   w.ConcSeq(&c.AccTS, tier),
		tid:  w.ConcSeq(&c.AccThread, tier),
		addr: w.ConcSeq(&c.AccAddr, tier),
		kind: w.ConcSeq(&c.AccKind, tier),
		stmt: w.ConcSeq(&c.AccStmt, tier),
		n:    c.SharedAccesses(),
	}
	r.advance()
	return r
}

func (r *accReader) advance() {
	if r.i >= r.n {
		r.ok = false
		return
	}
	r.i++
	r.cur = accEvt{
		ts:   r.ts.Next(),
		tid:  int32(r.tid.Next()),
		addr: r.addr.Next(),
	}
	r.cur.write = r.kind.Next() == core.AccWrite
	r.cur.stmt = r.stmt.Next()
	r.ok = true
}
