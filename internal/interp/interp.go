// Package interp executes ir programs and emits the full dynamic event
// stream — statement instances with produced values, data-dependence
// sources, control-dependence sources, and Ball–Larus path completions.
// It plays the role of the Trimaran simulator in the paper: profiling by
// simulation, with no instrumentation intrusion.
package interp

import (
	"context"
	"fmt"

	"wet/internal/ballarus"
	"wet/internal/ir"
	"wet/internal/trace"
)

// ArchSink receives the architecture-level outcomes used by the paper's
// Table 4 (branch misprediction and cache-miss one-bit histories). All
// methods are optional behaviour hooks; implementations decide the model.
type ArchSink interface {
	Branch(st *ir.Stmt, taken bool)
	Access(st *ir.Stmt, addr int64, isStore bool)
}

// Options configures a run.
type Options struct {
	Inputs   []int64 // input tape consumed by OpInput (0 after exhaustion)
	MaxSteps uint64  // abort bound on dynamic statements (0 = 1<<40)
	Sink     trace.Sink
	Arch     ArchSink
	// CollectOutput keeps values written by OpOutput (tests, examples).
	CollectOutput bool
	// Ctx cancels the run cooperatively: the step loop polls it every
	// ctxCheckMask+1 dynamic statements and returns context.Cause. Nil
	// means never cancelled.
	Ctx context.Context
	// Seed drives the deterministic thread scheduler of concurrent
	// programs: at every Ball–Larus path boundary the next runnable thread
	// is picked by a seeded xorshift generator, so the same program,
	// inputs, and seed replay the same interleaving (0 picks a fixed
	// default seed). Single-threaded programs are unaffected.
	Seed uint64
}

// ctxCheckMask spaces cancellation polls: one ctx.Err() per 4096 dynamic
// statements keeps the check off the profile while bounding cancellation
// latency to microseconds at interpreter speeds.
const ctxCheckMask = 1<<12 - 1

// Result summarizes a completed run.
type Result struct {
	Steps   uint64  // dynamic statements executed
	Outputs []int64 // collected OpOutput values (if requested)
}

// Static holds per-program analysis shared across runs: Ball–Larus path
// profiles and block-level control dependence, per function.
type Static struct {
	Prog     *ir.Program
	Paths    []*ballarus.Profile
	CD       []*ir.ControlDeps
	CDParent [][][]int // [fn][block] = static CD parent blocks
}

// Analyze computes the static side tables for p (finalized).
func Analyze(p *ir.Program) (*Static, error) { return AnalyzeOpt(p, false) }

// AnalyzeOpt is Analyze with the per-block node ablation: when perBlock is
// true every basic block is its own "path", recovering the paper's
// unoptimized timestamp scheme.
func AnalyzeOpt(p *ir.Program, perBlock bool) (*Static, error) {
	s := &Static{Prog: p}
	for _, f := range p.Funcs {
		pp, err := ballarus.NewOpt(f, perBlock)
		if err != nil {
			return nil, err
		}
		s.Paths = append(s.Paths, pp)
		cd, err := ir.ControlDependence(f)
		if err != nil {
			return nil, err
		}
		s.CD = append(s.CD, cd)
		s.CDParent = append(s.CDParent, cd.Parents)
	}
	return s, nil
}

// PathSources returns where the operands of one execution of the
// Ball–Larus path through blocks of function fn read from, when the path
// itself fixes it. Operands are laid out statement by statement in event
// order: a statement's DD operand sources (its register uses, then a load's
// memory producer), then its CD source. src[j] is the position in the path
// of the instance operand j reads, or -1 when that source lies before the
// path or is carried by memory; nops[i] is statement i's DD operand count.
// Run reports exactly these sources: within a path, a frame's shadow state
// changes only through the path's own statements, so a register defined
// earlier in the path reads that definition, and a block with a CD parent
// earlier in the path reads the branch of the latest such parent.
func (s *Static) PathSources(fn int, blocks []int) (src, nops []int32) {
	f := s.Prog.Funcs[fn]
	lastDef := make([]int32, f.NumRegs) // position plus one, 0 for none
	ran := make([]int32, len(f.Blocks)) // a branch's position plus one
	var uses []ir.Reg
	pos := int32(0)
	for _, bid := range blocks {
		cd := int32(-1)
		for _, par := range s.CDParent[fn][bid] {
			cd = max(cd, ran[par]-1)
		}
		for _, st := range f.Blocks[bid].Stmts {
			uses = st.Uses(uses[:0])
			for _, r := range uses {
				src = append(src, lastDef[r]-1)
			}
			n := int32(len(uses))
			if st.Op == ir.OpLoad || st.Op == ir.OpLoadSh {
				src = append(src, -1)
				n++
			}
			src, nops = append(src, cd), append(nops, n)
			if st.Op.HasDef() && st.Dest != ir.NoReg {
				lastDef[st.Dest] = pos + 1
			}
			pos++
		}
		if f.Blocks[bid].Term().Op == ir.OpBr {
			ran[bid] = pos
		}
	}
	return src, nops
}

// brRec remembers the latest dynamic instance of a branch block's terminator
// within one frame.
type brRec struct {
	inst trace.Inst
	seq  uint64
}

type frame struct {
	f       *ir.Func
	regs    []int64
	regTag  []trace.Inst
	tracker ballarus.Tracker
	lastBr  []brRec
	cur     int    // current block id
	retDest ir.Reg // caller register receiving the return value
	retBlk  int    // caller block that issued the call
}

// tstate is a thread's scheduler state.
type tstate uint8

const (
	tReady       tstate = iota
	tBlockedJoin        // waiting for thread `wait` to finish
	tBlockedLock        // waiting for lock `wait` to be released
	tDone               // root frame returned
)

// thread is one execution context: a call stack plus scheduler state. The
// entry function runs as thread 0; OpSpawn creates further threads with
// dense ids in creation order.
type thread struct {
	id       int32
	stack    []*frame
	state    tstate
	wait     int64  // tBlockedJoin: target thread id; tBlockedLock: lock id
	joinDest ir.Reg // register receiving the joined thread's return value
	retVal   int64  // root-frame return value, delivered at join
	retTag   trace.Inst
}

// runner holds the whole run state: memory, threads, locks, buffers, and
// the scheduler's RNG. Memory and its producer tags are shared across
// threads, so memory-carried DD edges cross threads for free.
type runner struct {
	st   *Static
	opts Options
	conc trace.ConcSink // opts.Sink's concurrency extension, or nil

	mem    []int64
	memTag []trace.Inst
	mask   int64

	threads  []*thread
	runnable []*thread
	locked   map[int64]bool
	rng      uint64

	res      *Result
	maxSteps uint64
	ts       uint32 // timestamp of the path executing now; the first is 1
	brSeq    uint64
	inPos    int
	ddBuf    []trace.Inst
	dvBuf    []int64
	useBuf   []ir.Reg

	pathDone bool // one Ball–Larus path completed: yield to the scheduler
	halted   bool
}

// Run executes the program under opts and streams events to opts.Sink.
// Threads are interleaved at Ball–Larus path boundaries only (calls and
// sync operations terminate paths), so every path's statement events reach
// the sink contiguously, exactly as in a single-threaded run.
func Run(st *Static, opts Options) (*Result, error) {
	p := st.Prog
	r := &runner{
		st:       st,
		opts:     opts,
		mem:      make([]int64, p.MemWords),
		memTag:   make([]trace.Inst, p.MemWords),
		mask:     p.MemWords - 1,
		locked:   map[int64]bool{},
		rng:      opts.Seed,
		ts:       1,
		res:      &Result{},
		maxSteps: opts.MaxSteps,
		ddBuf:    make([]trace.Inst, 0, 8),
		dvBuf:    make([]int64, 0, 8),
		useBuf:   make([]ir.Reg, 0, 8),
	}
	if r.maxSteps == 0 {
		r.maxSteps = 1 << 40
	}
	if r.rng == 0 {
		r.rng = 0x9e3779b97f4a7c15
	}
	if cs, ok := opts.Sink.(trace.ConcSink); ok {
		r.conc = cs
	}
	r.threads = []*thread{{id: 0, stack: []*frame{r.newFrame(p.Entry)}}}
	return r.run()
}

// rand steps the scheduler's xorshift64 generator.
func (r *runner) rand() uint64 {
	x := r.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	r.rng = x
	return x
}

func (r *runner) newFrame(fi int) *frame {
	f := r.st.Prog.Funcs[fi]
	return &frame{
		f:       f,
		regs:    make([]int64, f.NumRegs),
		regTag:  make([]trace.Inst, f.NumRegs),
		tracker: r.st.Paths[fi].NewTracker(),
		lastBr:  make([]brRec, len(f.Blocks)),
	}
}

// emitPath closes the current Ball–Larus path of thread t and yields to
// the scheduler.
func (r *runner) emitPath(t *thread, fr *frame, id int64) {
	if r.opts.Sink != nil {
		if r.conc != nil {
			r.conc.PathOwner(t.id)
		}
		r.opts.Sink.PathDone(fr.f.Index, id)
	}
	r.pathDone = true
	r.ts++
}

// run is the scheduler loop: pick a runnable thread (seeded-random among
// the candidates), apply its pending wake effect, and execute one path.
func (r *runner) run() (*Result, error) {
	for !r.halted {
		r.runnable = r.runnable[:0]
		alive := false
		for _, t := range r.threads {
			switch t.state {
			case tReady:
				alive = true
				r.runnable = append(r.runnable, t)
			case tBlockedJoin:
				alive = true
				if r.threads[t.wait].state == tDone {
					r.runnable = append(r.runnable, t)
				}
			case tBlockedLock:
				alive = true
				if !r.locked[t.wait] {
					r.runnable = append(r.runnable, t)
				}
			}
		}
		if len(r.runnable) == 0 {
			if !alive {
				return r.res, fmt.Errorf("interp: program ended without halt")
			}
			return r.res, fmt.Errorf("interp: deadlock: all %d live threads blocked on joins/locks", len(r.threads))
		}
		t := r.runnable[0]
		if len(r.runnable) > 1 {
			t = r.runnable[int(r.rand()%uint64(len(r.runnable)))]
		}
		// Wake effects happen here, at the start of the thread's next path,
		// so their sync events are stamped with that path's timestamp: the
		// happens-before edge points at everything the path does.
		switch t.state {
		case tBlockedJoin:
			tgt := r.threads[t.wait]
			fr := t.stack[len(t.stack)-1]
			if t.joinDest != ir.NoReg {
				fr.regs[t.joinDest] = tgt.retVal
				fr.regTag[t.joinDest] = tgt.retTag
			}
			if r.conc != nil {
				r.conc.SyncEvent(trace.SyncJoin, t.id, t.wait)
			}
			t.state = tReady
		case tBlockedLock:
			r.locked[t.wait] = true
			if r.conc != nil {
				r.conc.SyncEvent(trace.SyncAcquire, t.id, t.wait)
			}
			t.state = tReady
		}
		if err := r.runPath(t); err != nil {
			return r.res, err
		}
	}
	return r.res, nil
}

// runPath executes thread t until one Ball–Larus path completes (or the
// program halts, or t's root frame returns). The operand buffers live in
// locals for the whole path and are written back once, at its end, so a
// statement stores no slice header into the heap (no GC write barrier).
// Every statement of the path is named by the path's timestamp and its
// position in the path (trace.InstAt): the path ends only at a terminator,
// after the last statement is named.
func (r *runner) runPath(t *thread) error {
	st, opts, res := r.st, &r.opts, r.res
	mem, memTag, mask := r.mem, r.memTag, r.mask
	useBuf, ddBuf, dvBuf := r.useBuf, r.ddBuf, r.dvBuf
	ts, pos := r.ts, 0
	r.pathDone = false
	for !r.pathDone {
		fr := t.stack[len(t.stack)-1]
		b := fr.f.Blocks[fr.cur]

		// Dynamic control dependence of this block execution: the most
		// recently executed static CD parent branch in this frame.
		var cdSrc trace.Inst
		var bestSeq uint64
		for _, par := range st.CDParent[fr.f.Index][fr.cur] {
			if rec := fr.lastBr[par]; rec.inst != 0 && rec.seq >= bestSeq {
				cdSrc, bestSeq = rec.inst, rec.seq
			}
		}

		for _, s := range b.Stmts {
			if res.Steps >= r.maxSteps {
				return fmt.Errorf("interp: exceeded %d steps in %s", r.maxSteps, fr.f.Name)
			}
			if opts.Ctx != nil && res.Steps&ctxCheckMask == 0 && opts.Ctx.Err() != nil {
				return context.Cause(opts.Ctx)
			}
			res.Steps++
			inst := trace.InstAt(ts, pos)
			pos++

			// Gather operand values and dependence sources.
			val := func(o ir.Operand) int64 {
				if o.IsReg {
					return fr.regs[o.Reg]
				}
				return o.Imm
			}
			useBuf = s.Uses(useBuf[:0])
			ddBuf, dvBuf = ddBuf[:0], dvBuf[:0]
			for _, u := range useBuf {
				ddBuf = append(ddBuf, fr.regTag[u])
				dvBuf = append(dvBuf, fr.regs[u])
			}

			var result int64
			var defTag = inst

			switch s.Op {
			case ir.OpConst:
				result = s.A.Imm
			case ir.OpAdd:
				result = val(s.A) + val(s.B)
			case ir.OpSub:
				result = val(s.A) - val(s.B)
			case ir.OpMul:
				result = val(s.A) * val(s.B)
			case ir.OpDiv:
				if d := val(s.B); d != 0 {
					result = val(s.A) / d
				}
			case ir.OpMod:
				if d := val(s.B); d != 0 {
					result = val(s.A) % d
				}
			case ir.OpAnd:
				result = val(s.A) & val(s.B)
			case ir.OpOr:
				result = val(s.A) | val(s.B)
			case ir.OpXor:
				result = val(s.A) ^ val(s.B)
			case ir.OpShl:
				result = val(s.A) << (uint64(val(s.B)) & 63)
			case ir.OpShr:
				result = val(s.A) >> (uint64(val(s.B)) & 63)
			case ir.OpNeg:
				result = -val(s.A)
			case ir.OpNot:
				result = ^val(s.A)
			case ir.OpEq:
				result = b2i(val(s.A) == val(s.B))
			case ir.OpNe:
				result = b2i(val(s.A) != val(s.B))
			case ir.OpLt:
				result = b2i(val(s.A) < val(s.B))
			case ir.OpLe:
				result = b2i(val(s.A) <= val(s.B))
			case ir.OpGt:
				result = b2i(val(s.A) > val(s.B))
			case ir.OpGe:
				result = b2i(val(s.A) >= val(s.B))
			case ir.OpLoad:
				addr := (val(s.A) + s.Off) & mask
				result = mem[addr]
				// The loaded value's producer is the store (or 0 if the
				// word was never written): a memory-carried dependence.
				ddBuf = append(ddBuf, memTag[addr])
				dvBuf = append(dvBuf, result)
				if opts.Arch != nil {
					opts.Arch.Access(s, addr, false)
				}
			case ir.OpStore:
				addr := (val(s.A) + s.Off) & mask
				mem[addr] = val(s.B)
				memTag[addr] = inst
				if opts.Arch != nil {
					opts.Arch.Access(s, addr, true)
				}
			case ir.OpInput:
				if r.inPos < len(opts.Inputs) {
					result = opts.Inputs[r.inPos]
					r.inPos++
				}
			case ir.OpOutput:
				if opts.CollectOutput {
					res.Outputs = append(res.Outputs, val(s.A))
				}
			case ir.OpLoadSh:
				addr := (val(s.A) + s.Off) & mask
				result = mem[addr]
				ddBuf = append(ddBuf, memTag[addr])
				dvBuf = append(dvBuf, result)
				if opts.Arch != nil {
					opts.Arch.Access(s, addr, false)
				}
				if r.conc != nil {
					r.conc.SharedAccess(t.id, addr, false, s.ID)
				}
			case ir.OpStoreSh:
				addr := (val(s.A) + s.Off) & mask
				mem[addr] = val(s.B)
				memTag[addr] = inst
				if opts.Arch != nil {
					opts.Arch.Access(s, addr, true)
				}
				if r.conc != nil {
					r.conc.SharedAccess(t.id, addr, true, s.ID)
				}
			case ir.OpSpawn:
				// The child thread is created here so the spawn statement's
				// recorded value is the child's thread id.
				child := &thread{id: int32(len(r.threads)), stack: []*frame{r.newFrame(s.Callee)}}
				cf := child.stack[0]
				for i, a := range s.Args {
					cf.regs[i] = val(a)
					if a.IsReg {
						cf.regTag[i] = fr.regTag[a.Reg]
					}
				}
				r.threads = append(r.threads, child)
				result = int64(child.id)
			case ir.OpJmp, ir.OpBr, ir.OpCall, ir.OpRet, ir.OpHalt,
				ir.OpJoin, ir.OpLock, ir.OpUnlock:
				// handled below, after the event is emitted
			default:
				return fmt.Errorf("interp: unknown op %s", s.Op)
			}

			if opts.Sink != nil {
				opts.Sink.Stmt(inst, s, result, ddBuf, dvBuf, cdSrc)
			}
			if s.Op.HasDef() && s.Dest != ir.NoReg {
				fr.regs[s.Dest] = result
				fr.regTag[s.Dest] = defTag
			}

			// Terminators: control transfer, path bookkeeping.
			switch s.Op {
			case ir.OpJmp:
				if id, done := fr.tracker.Take(fr.cur, 0); done {
					r.emitPath(t, fr, id)
				}
				fr.cur = b.Succs[0]
			case ir.OpBr:
				taken := val(s.A) != 0
				if opts.Arch != nil {
					opts.Arch.Branch(s, taken)
				}
				r.brSeq++
				fr.lastBr[fr.cur] = brRec{inst: inst, seq: r.brSeq}
				idx := 1
				if taken {
					idx = 0
				}
				if id, done := fr.tracker.Take(fr.cur, idx); done {
					r.emitPath(t, fr, id)
				}
				fr.cur = b.Succs[idx]
			case ir.OpCall:
				r.emitPath(t, fr, fr.tracker.CompleteAtCall(fr.cur))
				callee := r.newFrame(s.Callee)
				for i, a := range s.Args {
					callee.regs[i] = val(a)
					if a.IsReg {
						callee.regTag[i] = fr.regTag[a.Reg]
					}
				}
				fr.retDest = s.Dest
				fr.retBlk = fr.cur
				fr.cur = b.Succs[0]
				t.stack = append(t.stack, callee)
			case ir.OpRet:
				r.emitPath(t, fr, fr.tracker.Finish(fr.cur))
				t.stack = t.stack[:len(t.stack)-1]
				if len(t.stack) == 0 {
					if t.id == 0 {
						return fmt.Errorf("interp: ret from entry function %s", fr.f.Name)
					}
					// Thread completion: hold the return value (and its
					// producer tag) for delivery at a join.
					t.state = tDone
					t.retVal = val(s.A)
					if s.A.IsReg {
						t.retTag = fr.regTag[s.A.Reg]
					} else {
						t.retTag = 0
					}
					break
				}
				caller := t.stack[len(t.stack)-1]
				if caller.retDest != ir.NoReg {
					caller.regs[caller.retDest] = val(s.A)
					if s.A.IsReg {
						caller.regTag[caller.retDest] = fr.regTag[s.A.Reg]
					} else {
						caller.regTag[caller.retDest] = 0
					}
				}
				caller.tracker.ResumeAfterCall(caller.retBlk)
			case ir.OpHalt:
				r.emitPath(t, fr, fr.tracker.Finish(fr.cur))
				r.halted = true
			case ir.OpSpawn:
				// The spawn's happens-before edge is stamped at the end of
				// this path: emit the sync event before closing it.
				if r.conc != nil {
					r.conc.SyncEvent(trace.SyncSpawn, t.id, result)
				}
				r.emitPath(t, fr, fr.tracker.CompleteAtCall(fr.cur))
				fr.tracker.ResumeAfterCall(fr.cur)
				fr.cur = b.Succs[0]
			case ir.OpJoin:
				tid := val(s.A)
				if tid < 0 || tid >= int64(len(r.threads)) || tid == int64(t.id) {
					return fmt.Errorf("interp: %s joins invalid thread id %d", fr.f.Name, tid)
				}
				r.emitPath(t, fr, fr.tracker.CompleteAtCall(fr.cur))
				fr.tracker.ResumeAfterCall(fr.cur)
				fr.cur = b.Succs[0]
				// Block; the scheduler delivers the value and emits the
				// SyncJoin event when the target is done.
				t.state = tBlockedJoin
				t.wait = tid
				t.joinDest = s.Dest
			case ir.OpLock:
				r.emitPath(t, fr, fr.tracker.CompleteAtCall(fr.cur))
				fr.tracker.ResumeAfterCall(fr.cur)
				fr.cur = b.Succs[0]
				// Block; the scheduler acquires the lock and emits the
				// SyncAcquire event when it is free.
				t.state = tBlockedLock
				t.wait = val(s.A)
			case ir.OpUnlock:
				id := val(s.A)
				if !r.locked[id] {
					return fmt.Errorf("interp: %s unlocks lock %d which is not held", fr.f.Name, id)
				}
				delete(r.locked, id)
				if r.conc != nil {
					r.conc.SyncEvent(trace.SyncRelease, t.id, id)
				}
				r.emitPath(t, fr, fr.tracker.CompleteAtCall(fr.cur))
				fr.tracker.ResumeAfterCall(fr.cur)
				fr.cur = b.Succs[0]
			}
			if s.Op.IsTerminator() {
				break
			}
		}
	}
	r.useBuf, r.ddBuf, r.dvBuf = useBuf, ddBuf, dvBuf
	return nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
