// Package trace defines the dynamic-event protocol between the simulator
// (internal/interp) and trace consumers such as the WET builder
// (internal/core), plus size accounting for the *uncompressed* ("original")
// Whole Execution Trace that the paper's Tables 1–3 use as the baseline.
package trace

import "wet/internal/ir"

// Inst identifies one dynamic statement instance by where it ran: the
// timestamp of its Ball–Larus path execution (the high 32 bits; the first
// path is 1) and its position in that path (the low 32 bits). 0 means "no
// source" (immediates, inputs, program start). A consumer that knows where
// each path execution landed therefore locates any instance without a
// per-instance table.
type Inst = uint64

// InstAt names the instance at position pos of the path executed at ts.
func InstAt(ts uint32, pos int) Inst { return Inst(ts)<<32 | Inst(uint32(pos)) }

// InstTS is the timestamp of the path execution instance i belongs to.
func InstTS(i Inst) uint32 { return uint32(i >> 32) }

// InstPos is instance i's position in its path execution.
func InstPos(i Inst) int { return int(uint32(i)) }

// Sink consumes the dynamic event stream of one program run.
//
// Statement events arrive in execution order. Path boundaries arrive as
// PathDone events: a PathDone(fn, pathID) covers every Stmt event since the
// previous PathDone — path executions never interleave because calls
// terminate Ball–Larus paths.
type Sink interface {
	// Stmt reports one executed statement instance.
	//   inst   – the instance's name, InstAt(path timestamp, position)
	//   st     – the static statement
	//   value  – the produced value; meaningful only when st.Op.HasDef()
	//   ddSrcs – instance ids of the producers of each register operand, in
	//            st.Uses order, with the memory-carried producer appended
	//            for loads (0 = no producer); the slice is reused by the
	//            caller and must be copied if retained
	//   ddVals – the operand values carried by the corresponding ddSrcs
	//            entries (the register contents / loaded value)
	//   cdSrc  – instance id of the branch instance this statement's block
	//            execution is control dependent on (0 = none)
	Stmt(inst Inst, st *ir.Stmt, value int64, ddSrcs []Inst, ddVals []int64, cdSrc Inst)

	// PathDone reports that the Ball–Larus path pathID of function fn has
	// completed, closing the statement instances emitted since the previous
	// PathDone.
	PathDone(fn int, pathID int64)
}

// SyncKind classifies one thread-synchronization event.
type SyncKind uint8

const (
	// SyncSpawn: the thread created a child thread (obj = child thread id).
	// Stamped at the end of the spawning path: everything the parent did up
	// to and including that path happens-before the child.
	SyncSpawn SyncKind = iota
	// SyncJoin: the thread observed a child's completion (obj = joined
	// thread id). Stamped at the start of the path that resumes after the
	// join: everything the child did happens-before that path.
	SyncJoin
	// SyncAcquire: the thread acquired a lock (obj = lock id). Stamped at
	// the start of the path that runs under the lock.
	SyncAcquire
	// SyncRelease: the thread released a lock (obj = lock id). Stamped at
	// the end of the releasing path.
	SyncRelease
)

var syncKindNames = [...]string{"spawn", "join", "acquire", "release"}

func (k SyncKind) String() string {
	if int(k) < len(syncKindNames) {
		return syncKindNames[k]
	}
	return "sync?"
}

// ConcSink is the optional concurrency extension of Sink. A sink that
// implements it additionally receives, for concurrent runs, the owning
// thread of every path, the synchronization events, and the annotated
// shared-memory accesses. Sync and access events are attributed to the path
// whose PathDone follows them (the builder stamps them with that path's
// timestamp); intra-path ordering is by kind — acquire/join events precede
// the path's accesses, release/spawn events follow them.
type ConcSink interface {
	// PathOwner names the thread executing the path whose PathDone follows.
	PathOwner(tid int32)
	// SyncEvent reports one synchronization event by thread tid.
	SyncEvent(k SyncKind, tid int32, obj int64)
	// SharedAccess reports one annotated shared-memory access: thread tid
	// touched word addr via statement stmtID.
	SharedAccess(tid int32, addr int64, isWrite bool, stmtID int)
}

// Paper-accurate storage units: the evaluation counts 32-bit words for
// timestamps and values, so a timestamp pair is 8 bytes.
const (
	TSBytes   = 4 // one timestamp
	ValBytes  = 4 // one value
	PairBytes = 8 // one <ts,ts> dependence label
)

// RawStats accumulates the counts that determine the size of the
// uncompressed WET: one timestamp per statement execution, one value per
// def-port statement execution, one timestamp pair per dynamic dependence
// (data and control).
type RawStats struct {
	StmtExecs  uint64 // dynamic statements (intermediate-code statements executed)
	DefExecs   uint64 // dynamic statements with a def port
	DynDD      uint64 // dynamic data dependences (per operand with a producer)
	DynCD      uint64 // dynamic control dependences (statements with a controlling branch)
	BlockExecs uint64 // basic-block executions (one original-WET time tick each)
	PathExecs  uint64 // Ball–Larus path executions (one tier-1 time tick each)
	Loads      uint64 // dynamic loads
	Stores     uint64 // dynamic stores
	Branches   uint64 // dynamic conditional branches
	SyncOps    uint64 // dynamic sync statements (spawn/join/lock/unlock)
	SharedAcc  uint64 // dynamic shared-annotated loads and stores
}

// OrigNodeTSBytes is the original WET size of the node timestamp labels:
// every statement execution is labeled with its timestamp.
func (r *RawStats) OrigNodeTSBytes() uint64 { return r.StmtExecs * TSBytes }

// OrigNodeValBytes is the original WET size of the node value labels.
func (r *RawStats) OrigNodeValBytes() uint64 { return r.DefExecs * ValBytes }

// OrigEdgeBytes is the original WET size of the dependence edge labels.
func (r *RawStats) OrigEdgeBytes() uint64 { return (r.DynDD + r.DynCD) * PairBytes }

// OrigWETBytes is the total original WET size.
func (r *RawStats) OrigWETBytes() uint64 {
	return r.OrigNodeTSBytes() + r.OrigNodeValBytes() + r.OrigEdgeBytes()
}

// Counting is a Sink that only accumulates RawStats. It can wrap another
// sink, forwarding every event.
type Counting struct {
	RawStats
	Next Sink

	curBlk  int
	curFn   int
	haveBlk bool
}

// NewCounting returns a counting sink forwarding to next (next may be nil).
func NewCounting(next Sink) *Counting { return &Counting{Next: next} }

// Stmt implements Sink.
func (c *Counting) Stmt(inst Inst, st *ir.Stmt, value int64, ddSrcs []Inst, ddVals []int64, cdSrc Inst) {
	c.count(st)
	for _, s := range ddSrcs {
		if s != 0 {
			c.DynDD++
		}
	}
	if cdSrc != 0 {
		c.DynCD++
	}
	if !c.haveBlk || newBlock(st, c.curFn, c.curBlk) {
		c.BlockExecs++
		c.haveBlk = true
		c.curFn, c.curBlk = st.Fn, st.Blk
	}
	if c.Next != nil {
		c.Next.Stmt(inst, st, value, ddSrcs, ddVals, cdSrc)
	}
}

// count adds what one execution of st contributes whatever its operands:
// everything but the dependences and the block executions.
func (r *RawStats) count(st *ir.Stmt) {
	r.StmtExecs++
	if st.Op.HasDef() {
		r.DefExecs++
	}
	switch st.Op {
	case ir.OpLoad:
		r.Loads++
	case ir.OpStore:
		r.Stores++
	case ir.OpBr:
		r.Branches++
	case ir.OpLoadSh:
		r.Loads++
		r.SharedAcc++
	case ir.OpStoreSh:
		r.Stores++
		r.SharedAcc++
	case ir.OpSpawn, ir.OpJoin, ir.OpLock, ir.OpUnlock:
		r.SyncOps++
	}
}

// newBlock reports whether st, following a statement of block blk of
// function fn in the same path, starts a new block execution.
func newBlock(st *ir.Stmt, fn, blk int) bool {
	return fn != st.Fn || blk != st.Blk || st.Idx == 0
}

// PathRaw returns the counts one execution of a Ball–Larus path with
// statements stmts contributes, apart from the dependences (DynDD, DynCD),
// which depend on the operands' producers. A consumer that tallies a
// path's executions gets Counting's totals as the sum over paths of
// PathRaw times the executions, without looking at a statement event.
func PathRaw(stmts []*ir.Stmt) RawStats {
	r := RawStats{PathExecs: 1}
	for i, st := range stmts {
		r.count(st)
		if i == 0 || newBlock(st, stmts[i-1].Fn, stmts[i-1].Blk) {
			r.BlockExecs++
		}
	}
	return r
}

// Add adds k times o to r.
func (r *RawStats) Add(o *RawStats, k uint64) {
	r.StmtExecs += k * o.StmtExecs
	r.DefExecs += k * o.DefExecs
	r.DynDD += k * o.DynDD
	r.DynCD += k * o.DynCD
	r.BlockExecs += k * o.BlockExecs
	r.PathExecs += k * o.PathExecs
	r.Loads += k * o.Loads
	r.Stores += k * o.Stores
	r.Branches += k * o.Branches
	r.SyncOps += k * o.SyncOps
	r.SharedAcc += k * o.SharedAcc
}

// PathDone implements Sink.
func (c *Counting) PathDone(fn int, pathID int64) {
	c.PathExecs++
	c.haveBlk = false
	if c.Next != nil {
		c.Next.PathDone(fn, pathID)
	}
}

// PathOwner implements ConcSink, forwarding when the wrapped sink cares.
func (c *Counting) PathOwner(tid int32) {
	if cs, ok := c.Next.(ConcSink); ok {
		cs.PathOwner(tid)
	}
}

// SyncEvent implements ConcSink.
func (c *Counting) SyncEvent(k SyncKind, tid int32, obj int64) {
	if cs, ok := c.Next.(ConcSink); ok {
		cs.SyncEvent(k, tid, obj)
	}
}

// SharedAccess implements ConcSink.
func (c *Counting) SharedAccess(tid int32, addr int64, isWrite bool, stmtID int) {
	if cs, ok := c.Next.(ConcSink); ok {
		cs.SharedAccess(tid, addr, isWrite, stmtID)
	}
}

// Event is a recorded statement event (for tests and small-scale debugging).
type Event struct {
	Inst   Inst
	Stmt   *ir.Stmt
	Value  int64
	DDSrcs []Inst
	DDVals []int64
	CDSrc  Inst
}

// PathEvent is a recorded path completion.
type PathEvent struct {
	Fn     int
	PathID int64
	// Upto is the number of statement events covered so far (prefix length
	// of Recording.Events belonging to this and earlier paths).
	Upto int
}

// Recording is a Sink that stores every event; test-sized runs only.
type Recording struct {
	Events []Event
	Paths  []PathEvent
}

// Stmt implements Sink.
func (r *Recording) Stmt(inst Inst, st *ir.Stmt, value int64, ddSrcs []Inst, ddVals []int64, cdSrc Inst) {
	cp := make([]Inst, len(ddSrcs))
	copy(cp, ddSrcs)
	vp := make([]int64, len(ddVals))
	copy(vp, ddVals)
	r.Events = append(r.Events, Event{Inst: inst, Stmt: st, Value: value, DDSrcs: cp, DDVals: vp, CDSrc: cdSrc})
}

// PathDone implements Sink.
func (r *Recording) PathDone(fn int, pathID int64) {
	r.Paths = append(r.Paths, PathEvent{Fn: fn, PathID: pathID, Upto: len(r.Events)})
}
