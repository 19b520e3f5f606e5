package main

import (
	"bytes"
	"fmt"
	"slices"

	"wet"
	"wet/internal/core"
	"wet/internal/interp"
	"wet/internal/ir"
	"wet/internal/query"
	"wet/internal/trace"
	"wet/internal/workload"
)

// fold is an order-sensitive digest step (FNV-1a over whole words).
func fold(h, v uint64) uint64 { return (h ^ v) * 0x100000001b3 }

const foldInit = 0xcbf29ce484222325

// mix hashes one (statement, timestamp, value) sample; sample digests are
// sums of mixes, so they compare multisets whatever the emission order.
func mix(stmt int, ts uint32, v int64) uint64 {
	x := uint64(stmt)<<32 ^ uint64(ts)
	x = (x ^ uint64(v)*0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
	x ^= x >> 31
	return x * 0x94d049bb133111eb
}

// rawLog is the oracle: a bench-owned trace.Sink that logs what the
// interpreter executed, never reading a WET. Every reference the benchmark
// checks control flow, values and addresses against is computed from it.
type rawLog struct {
	mask int64   // memory address mask of the program
	ids  []int32 // statement id of every executed statement, in order
	defs []bool  // whether that statement defines a register
	ends []int   // ends[k] = len(ids) when the path with timestamp k+1 completed

	loadStmts map[int]bool // the load statements that executed

	valSum, valN   uint64 // load-value samples: digest and count
	addrSum, addrN uint64 // load/store address samples
}

func (o *rawLog) Stmt(_ trace.Inst, st *ir.Stmt, value int64, ddSrcs []trace.Inst, ddVals []int64, _ trace.Inst) {
	o.ids = append(o.ids, int32(st.ID))
	o.defs = append(o.defs, st.Op.HasDef() && st.Dest >= 0)
	if st.Op != ir.OpLoad && st.Op != ir.OpStore {
		return
	}
	ts := uint32(len(o.ends) + 1)
	if st.Op == ir.OpLoad {
		// The trace format keeps 32-bit values, as the paper's does.
		o.valSum += mix(st.ID, ts, int64(int32(value)))
		o.valN++
		o.loadStmts[st.ID] = true
	}
	switch {
	case !st.A.IsReg:
		o.addrSum += mix(st.ID, ts, (st.A.Imm+st.Off)&o.mask)
		o.addrN++
	case len(ddSrcs) > 0 && ddSrcs[0] != 0:
		// An address is known to the trace only through its producer.
		o.addrSum += mix(st.ID, ts, (int64(int32(ddVals[0]))+st.Off)&o.mask)
		o.addrN++
	}
}

func (o *rawLog) PathDone(int, int64) { o.ends = append(o.ends, len(o.ids)) }

// time is the last timestamp of the run.
func (o *rawLog) time() uint32 { return uint32(len(o.ends)) }

// window returns the statement ids executed in timestamps [from, to].
func (o *rawLog) window(from, to uint32) []int32 {
	lo := 0
	if from > 1 {
		lo = o.ends[from-2]
	}
	return o.ids[lo:o.ends[to-1]]
}

func digestIDs(ids []int32, forward bool) uint64 {
	h := uint64(foldInit)
	if forward {
		for _, id := range ids {
			h = fold(h, uint64(id))
		}
	} else {
		for i := len(ids) - 1; i >= 0; i-- {
			h = fold(h, uint64(ids[i]))
		}
	}
	return h
}

// lastDef returns the last register-defining statement of the path executed
// at ts, or -1.
func (o *rawLog) lastDef(ts uint32) int {
	lo := 0
	if ts > 1 {
		lo = o.ends[ts-2]
	}
	for i := o.ends[ts-1] - 1; i >= lo; i-- {
		if o.defs[i] {
			return int(o.ids[i])
		}
	}
	return -1
}

// defFrom returns the first timestamp at or after ts whose path defines a
// register, with the last statement of the path that does.
func (o *rawLog) defFrom(ts uint32) (stmt int, at uint32, err error) {
	for at = ts; at <= o.time(); at++ {
		if stmt = o.lastDef(at); stmt >= 0 {
			return stmt, at, nil
		}
	}
	return 0, 0, fmt.Errorf("no definition executes at or after timestamp %d", ts)
}

// nearestExec returns the timestamp closest to ts at which stmt executed.
func (o *rawLog) nearestExec(stmt int, ts uint32) uint32 {
	has := func(t uint32) bool {
		for _, id := range o.window(t, t) {
			if int(id) == stmt {
				return true
			}
		}
		return false
	}
	for d := uint32(0); d < o.time(); d++ {
		if ts+d <= o.time() && has(ts+d) {
			return ts + d
		}
		if ts > d && has(ts-d) {
			return ts - d
		}
	}
	return 0
}

// progSpec names one program of a workload and how it is recorded.
type progSpec struct {
	name    string
	scale   int    // workload.Build scale; statements grow linearly with it
	epochTS uint32 // 0 = single-epoch Build+Freeze route, v3 container
}

// recording is one program run both ways: through the oracle sink and
// through wet.Run, with the saved container.
type recording struct {
	spec   progSpec
	prog   *ir.Program
	inputs []int64
	static *interp.Static
	log    *rawLog
	stmts  uint64
	// fwd and bwd are the oracle's whole-trace control-flow digests.
	fwd, bwd uint64

	tr   *wet.Trace // as recorded, in memory
	data []byte     // the saved container
}

// record generates the program, runs the oracle and records the trace.
func record(spec progSpec, t *tracer, parent int) (*recording, error) {
	wl, err := workload.ByName(spec.name)
	if err != nil {
		return nil, err
	}
	id := t.begin("workload.Build", parent, noSpan)
	prog, inputs := wl.Build(spec.scale)
	t.end(id)
	id = t.begin("interp.Analyze", parent, noSpan)
	st, err := interp.Analyze(prog)
	t.end(id)
	if err != nil {
		return nil, err
	}
	r := &recording{spec: spec, prog: prog, inputs: inputs, static: st}

	r.log = &rawLog{mask: prog.MemWords - 1, loadStmts: map[int]bool{}}
	id = t.begin("oracle.Run", parent, noSpan)
	logged, err := interp.Run(st, interp.Options{Inputs: inputs, Sink: r.log, CollectOutput: true})
	t.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: oracle run: %w", spec.name, err)
	}
	bare, err := interp.Run(st, interp.Options{Inputs: inputs, CollectOutput: true})
	if err != nil {
		return nil, fmt.Errorf("%s: sink-less run: %w", spec.name, err)
	}
	if bare.Steps != logged.Steps || !slices.Equal(bare.Outputs, logged.Outputs) {
		return nil, fmt.Errorf("%s: program outputs differ with and without a sink", spec.name)
	}
	r.stmts = logged.Steps
	r.fwd, r.bwd = digestIDs(r.log.ids, true), digestIDs(r.log.ids, false)

	id = t.begin("wet.Run", parent, noSpan)
	tr, res, err := wet.Run(prog, wet.WithInputs(inputs...), wet.WithEpochTS(spec.epochTS))
	t.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: wet.Run: %w", spec.name, err)
	}
	if res.Steps != r.stmts || tr.Time() != r.log.time() {
		return nil, fmt.Errorf("%s: recorded %d statements / %d timestamps, oracle saw %d / %d",
			spec.name, res.Steps, tr.Time(), r.stmts, r.log.time())
	}
	var buf bytes.Buffer
	id = t.begin("Trace.Save", parent, noSpan)
	err = tr.Save(&buf)
	t.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: save: %w", spec.name, err)
	}
	r.tr, r.data = tr, buf.Bytes()
	if err := r.checkCF(tr, true); err != nil {
		return nil, err
	}
	return r, nil
}

// checkCF extracts the whole control-flow trace from tr and compares it to
// the oracle's log.
func (r *recording) checkCF(tr *wet.Trace, forward bool) error {
	h := uint64(foldInit)
	n := tr.ExtractControlFlow(forward, func(id int) { h = fold(h, uint64(id)) })
	want := r.fwd
	if !forward {
		want = r.bwd
	}
	if n != r.stmts || h != want {
		return fmt.Errorf("%s: control-flow trace (forward=%v) differs from the oracle log: %d statements, want %d", r.spec.name, forward, n, r.stmts)
	}
	return nil
}

// checkSamples extracts per-statement (timestamp, value) traces from tr
// with extract and compares the samples to the oracle's count and digest.
func (r *recording) checkSamples(tr *wet.Trace, what string, wantN, wantSum uint64,
	extract func(*core.WET, core.Tier, func(int, query.Sample)) (uint64, error)) (uint64, error) {
	var sum uint64
	n, err := extract(tr.WET(), tr.Tier(), func(stmt int, s query.Sample) {
		sum += mix(stmt, s.TS, s.Value)
	})
	if err != nil {
		return n, err
	}
	if n != wantN || sum != wantSum {
		return n, fmt.Errorf("%s: %s traces differ from the oracle: %d samples, want %d", r.spec.name, what, n, wantN)
	}
	return n, nil
}

// checkValues checks every load-value trace, checkAddrs every load/store
// address trace.
func (r *recording) checkValues(tr *wet.Trace) (uint64, error) {
	return r.checkSamples(tr, "load-value", r.log.valN, r.log.valSum, query.LoadValueTraces)
}

func (r *recording) checkAddrs(tr *wet.Trace) (uint64, error) {
	return r.checkSamples(tr, "address", r.log.addrN, r.log.addrSum, query.AddressTraces)
}

// cfWindow is one timestamp range and what the oracle log says it holds.
type cfWindow struct {
	from, to  uint32
	n, digest uint64
}

func (r *recording) windowRef(from, to uint32) cfWindow {
	ids := r.log.window(from, to)
	return cfWindow{from, to, uint64(len(ids)), digestIDs(ids, true)}
}

// checkWindow extracts the window from tr and compares it to the log.
func (r *recording) checkWindow(tr *wet.Trace, w cfWindow) error {
	h := uint64(foldInit)
	n, err := tr.ExtractCFRange(w.from, w.to, func(id int) { h = fold(h, uint64(id)) })
	if err != nil {
		return err
	}
	if n != w.n || h != w.digest {
		return fmt.Errorf("%s: control flow of [%d, %d] differs from the oracle log", r.spec.name, w.from, w.to)
	}
	return nil
}

func recordAll(specs []progSpec, t *tracer, parent int) ([]*recording, error) {
	recs := make([]*recording, len(specs))
	for i, s := range specs {
		r, err := record(s, t, parent)
		if err != nil {
			return nil, err
		}
		recs[i] = r
	}
	return recs, nil
}

// sizeOf returns the container bytes and recorded statements of recs.
func sizeOf(recs []*recording) (bytes, stmts uint64) {
	for _, r := range recs {
		bytes += uint64(len(r.data))
		stmts += r.stmts
	}
	return bytes, stmts
}
