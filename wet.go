// Package wet is the public API of the Whole Execution Traces library — a
// reproduction of "Whole Execution Traces" (Zhang & Gupta, MICRO 2004).
//
// A WET is a unified, compressed representation of every kind of dynamic
// profile a program run produces: control flow, values, addresses, and
// data/control dependences. It is organized as a static program graph whose
// nodes are Ball–Larus paths labeled with dynamic profile sequences, and it
// is compressed in two tiers — customized per-label-kind compression
// followed by generic bidirectional stream compression — while remaining
// directly traversable in both directions.
//
// Typical use:
//
//	prog := wet.NewProgram(1 << 14)
//	fb := prog.NewFunc("main", 0)
//	... build IR with fb ...
//	prog.MustFinalize()
//
//	tr, _, err := wet.Run(prog, wet.WithInputs(7))
//	fmt.Println(tr.Report())        // sizes at each compression tier
//
//	n := tr.ExtractControlFlow(true, nil)
//	sl, err := tr.Backward(criterion, 0)
//
// Run accepts functional options mirroring Open: WithEpochTS streams the
// build in bounded-memory epochs, WithByteBudget lands the serialized
// container under a hard size ceiling (trading query capabilities in a
// fixed order and reporting exactly what it shed in Trace.Fidelity), and
// the shared knobs WithWorkers and WithContext mean the same thing on
// both paths. Saved traces come back through Open, at
// tier 2 (tier 1 is what a single-epoch build keeps):
//
//	tr2, rep, err := wet.Open(f, wet.WithLazy())
//
// The heavy lifting lives in internal packages; this package re-exports the
// stable surface: the IR builder (internal/ir), the simulator entry points
// (internal/interp), the WET core (internal/core), the queries
// (internal/query), and the benchmark workloads (internal/workload).
package wet

import (
	"context"
	"io"

	"wet/internal/asm"
	"wet/internal/core"
	"wet/internal/interp"
	"wet/internal/ir"
	"wet/internal/query"
	"wet/internal/stream"
	"wet/internal/wetio"
	"wet/internal/workload"
)

// --- IR construction ---

// Program is an IR program under construction or finalized.
type Program = ir.Program

// FuncBuilder builds one function with structured control flow.
type FuncBuilder = ir.FuncBuilder

// Reg is a virtual register; Operand is a register or immediate.
type (
	Reg     = ir.Reg
	Operand = ir.Operand
	Stmt    = ir.Stmt
	Op      = ir.Op
)

// NoReg marks "no destination register".
const NoReg = ir.NoReg

// NewProgram returns an empty program with the given memory size in 64-bit
// words (rounded up to a power of two).
func NewProgram(memWords int64) *Program { return ir.NewProgram(memWords) }

// R returns a register operand; Imm an immediate operand.
func R(r Reg) Operand     { return ir.R(r) }
func Imm(v int64) Operand { return ir.Imm(v) }

// --- running programs and building WETs ---

// RunResult summarizes the program run that produced a WET.
type RunResult = interp.Result

// WET is a whole execution trace.
type WET = core.WET

// SizeReport holds per-component sizes at each compression level.
type SizeReport = core.SizeReport

// FreezeOptions tunes WET.FreezeErr.
type FreezeOptions = core.FreezeOptions

// Tier selects the representation a query reads.
type Tier = core.Tier

// Query tiers: Tier1 = customized compression only, Tier2 = fully
// compressed (bidirectional streams).
const (
	Tier1 = core.Tier1
	Tier2 = core.Tier2
)

// RunProgram executes a finalized program without building a WET and
// returns its outputs (a convenience for testing generated IR).
func RunProgram(p *Program, inputs []int64) ([]int64, error) {
	st, err := interp.Analyze(p)
	if err != nil {
		return nil, err
	}
	res, err := interp.Run(st, interp.Options{Inputs: inputs, CollectOutput: true})
	if err != nil {
		return nil, err
	}
	return res.Outputs, nil
}

// --- queries ---

// Walker reconstructs the control-flow trace step by step in either
// direction.
type Walker = query.Walker

// Sample is one (timestamp, value) element of an extracted trace.
type Sample = query.Sample

// Instance names a dynamic statement instance in WET coordinates.
type Instance = query.Instance

// SliceResult is a WET slice.
type SliceResult = query.SliceResult

// --- streams (tier-2 compression, reusable standalone) ---

// Stream is an immutable compressed value sequence. Traversal happens
// through detached cursors: NewCursor spawns any number of independent
// readers over one stream, each safe in its own goroutine.
type Stream = stream.Stream

// Cursor is a detached bidirectional reader over one Stream, with
// checkpointed Seek (cost bounded by the stream's checkpoint spacing
// rather than the distance travelled).
type Cursor = stream.Cursor

// SeekStats is a snapshot of cursor seek counters (seeks issued, checkpoint
// restores used, steps walked); see Trace.SeekStats.
type SeekStats = stream.SeekStats

// SeekCounters is a per-trace seek-cost counter set; every trace returned
// by Open carries one (Trace.SeekStats reads it).
type SeekCounters = stream.SeekCounters

// CompressBest compresses vals with the best of the predictor pool
// (bidirectional FCM / dFCM / last-n / last-n stride / packed / verbatim).
func CompressBest(vals []uint32) Stream { return stream.CompressBest(vals) }

// --- parallel queries ---

// BatchCtx runs n independent query jobs over one shared frozen trace from
// `workers` goroutines (0 = GOMAXPROCS) and blocks until all started jobs
// complete. Queries need no caller synchronization: the access layer gives
// every query its own detached cursors. Workers stop claiming jobs once ctx
// dies or any job fails, and the first error — context.Cause on
// cancellation — is returned after in-flight jobs finish. A job panicking
// with a *DecodeError (a lazily opened stream failing its deferred decode)
// fails the batch with that typed error instead of crashing the process.
func BatchCtx(ctx context.Context, workers, n int, job func(i int) error) error {
	return query.BatchCtx(ctx, workers, n, job)
}

// --- workloads ---

// Workload is one of the nine SpecInt-like benchmark programs.
type Workload = workload.Workload

// Workloads returns the nine benchmarks in the paper's order.
func Workloads() []Workload { return workload.All() }

// WorkloadByName returns one benchmark by name.
func WorkloadByName(name string) (Workload, error) { return workload.ByName(name) }

// Opcode constants re-exported for inspecting statements.
const (
	OpConst  = ir.OpConst
	OpAdd    = ir.OpAdd
	OpSub    = ir.OpSub
	OpMul    = ir.OpMul
	OpDiv    = ir.OpDiv
	OpMod    = ir.OpMod
	OpAnd    = ir.OpAnd
	OpOr     = ir.OpOr
	OpXor    = ir.OpXor
	OpShl    = ir.OpShl
	OpShr    = ir.OpShr
	OpNeg    = ir.OpNeg
	OpNot    = ir.OpNot
	OpEq     = ir.OpEq
	OpNe     = ir.OpNe
	OpLt     = ir.OpLt
	OpLe     = ir.OpLe
	OpGt     = ir.OpGt
	OpGe     = ir.OpGe
	OpLoad   = ir.OpLoad
	OpStore  = ir.OpStore
	OpInput  = ir.OpInput
	OpOutput = ir.OpOutput
	OpJmp    = ir.OpJmp
	OpBr     = ir.OpBr
	OpCall   = ir.OpCall
	OpRet    = ir.OpRet
	OpHalt   = ir.OpHalt
)

// --- persistence ---

// Save writes a frozen WET to w, preserving the compressed stream states:
// format v3 for single-epoch WETs (byte-identical to earlier releases),
// v4 for epoch-segmented ones. Every section is framed with its length and
// a CRC32-C.
func Save(w io.Writer, t *WET) error { return wetio.Save(w, t) }

// SaveFile writes a frozen WET to path atomically: through a temp file in
// the same directory, fsynced, and renamed over the target only once every
// section is durable. A crash, disk-full error, or cancellation mid-save
// leaves any previous file intact; the new file appears all-or-nothing.
func SaveFile(path string, t *WET) error { return wetio.SaveFile(path, t) }

// SaveFileCtx is SaveFile with cooperative cancellation: the writer stops
// at a section boundary and returns context.Cause, and the temp file is
// removed — the destination never observes the tear.
func SaveFileCtx(ctx context.Context, path string, t *WET) error {
	return wetio.SaveFileCtx(ctx, path, t)
}

// FidelityReport is the machine-readable account of a byte-budgeted freeze
// (WithByteBudget): budget, lossless floor, achieved container size, which
// streams were kept, degraded, or dropped, and the query capabilities that
// cost. See Trace.Fidelity.
type FidelityReport = core.FidelityReport

// DroppedGroup and DroppedEdge are FidelityReport entries: one value group
// or dependence edge whose streams a byte-budgeted freeze dropped.
type (
	DroppedGroup = core.DroppedGroup
	DroppedEdge  = core.DroppedEdge
)

// CapabilityError is the typed refusal of a query that needs data the trace
// does not hold: a trace answers what it can and refuses — typed, never
// wrong — what it cannot. The Capability field holds the stable identifier
// (CapValues, CapDependences, CapExactTS, CapTier1) that was lost.
type CapabilityError = query.CapabilityError

// Capability identifiers. A byte-budgeted freeze can trade away the first
// three; they appear in FidelityReport.LostCapabilities and
// CapabilityError. CapTier1 is refused at Tier1 of a trace that keeps tier
// 2 only: a streamed build (WithEpochTS) or an opened file.
const (
	CapValues      = core.CapValues
	CapDependences = core.CapDependences
	CapExactTS     = core.CapExactTS
	CapTier1       = core.CapTier1
)

// BudgetError reports a WithByteBudget ceiling no degradation ladder can
// reach: even with every droppable stream shed and timestamps at the
// widest stride, the container still exceeds the budget.
type BudgetError = core.BudgetError

// DecodeError reports a lazily opened stream whose deferred decode failed
// at first touch (possible only on a forged store that passed its CRC) or
// was vetoed by its cache. Queries return it as an error; raw cursor
// stepping panics with it — use Force from the stream layer, or eager loads,
// for untrusted files.
type DecodeError = stream.DecodeError

// FormatError locates a structural or integrity failure in a WET file: the
// section containing it, the file offset, and the underlying cause.
type FormatError = wetio.FormatError

// SalvageReport describes what a salvage load recovered and what it lost.
type SalvageReport = wetio.SalvageReport

// VerifyResult summarizes a section-by-section integrity walk.
type VerifyResult = wetio.VerifyResult

// SectionStatus is one line of a VerifyResult.
type SectionStatus = wetio.SectionStatus

// ParseProgram compiles the textual IR format (see internal/asm) into a
// finalized program:
//
//	func main() {
//	    x = const 41
//	    y = add x, 1
//	    output y
//	    halt
//	}
func ParseProgram(src string) (*Program, error) { return asm.Parse(src) }

// HotPath summarizes a Ball–Larus path's execution frequency.
type HotPath = query.HotPath

// Invariance summarizes a statement's value predictability.
type Invariance = query.Invariance

// StrideProfile classifies one memory instruction's reference pattern.
type StrideProfile = query.StrideProfile

// Reference pattern classes for StrideProfiles.
const (
	RefConstant  = query.RefConstant
	RefStrided   = query.RefStrided
	RefIrregular = query.RefIrregular
)
