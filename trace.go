package wet

import (
	"context"
	"io"

	"wet/internal/core"
	"wet/internal/interp"
	"wet/internal/query"
	"wet/internal/racecheck"
	"wet/internal/wetio"
)

// Trace is the handle-based entry point to a whole execution trace: one
// value that carries the WET together with the tier queries read, so call
// sites stop threading a (w, tier) pair through every query. Obtain one
// from Run (build + freeze in one step), Open (from a saved file), or
// NewTrace (wrapping a *WET built through the lower-level API).
//
// A Trace is immutable and cheap to copy; AtTier returns a sibling handle
// over the same WET at a different tier. All query methods are safe for
// concurrent use on a frozen trace — every query gets its own detached
// cursors.
type Trace struct {
	w    *WET
	tier Tier
	open *OpenReport // set by Open; surfaces salvage/degradation in Report
}

// NewTrace wraps an already-built WET in a handle. The tier defaults to
// Tier2 when the WET is frozen and Tier1 otherwise; override with AtTier.
// A frozen WET without seek accounting gets a fresh per-trace counter set
// attached here (read it with SeekStats).
func NewTrace(w *WET) *Trace {
	t := &Trace{w: w, tier: Tier1}
	if w.Frozen() {
		t.tier = Tier2
		if w.SeekCounters() == nil {
			w.AttachSeekCounters(new(SeekCounters))
		}
	}
	return t
}

// Run executes the (finalized) program and returns its frozen trace in one
// call, configured by functional options mirroring Open:
//
//	tr, res, err := wet.Run(prog, wet.WithInputs(7), wet.WithEpochTS(1<<12))
//
// With WithEpochTS(n) the dynamic profile is sealed and tier-2 compressed
// in epochs of n timestamps while the interpreter runs (the streaming
// pipeline), bounding peak memory by the epoch size; without it the profile
// is built fully and then frozen. With WithByteBudget(n) the freeze lands
// the serialized container at or under n bytes, trading query capabilities
// in a fixed order and reporting exactly what it shed (Trace.Fidelity).
func Run(p *Program, opts ...RunOption) (*Trace, *RunResult, error) {
	var cfg runConfig
	for _, o := range opts {
		o.applyRun(&cfg)
	}
	st, err := interp.Analyze(p)
	if err != nil {
		return nil, nil, err
	}
	build := core.BuildStreaming
	if cfg.check {
		build = core.BuildStreamingChecked
	}
	w, _, res, err := build(st, cfg.run, cfg.frz)
	if err != nil {
		return nil, res, err
	}
	return NewTrace(w), res, nil
}

// WET returns the underlying whole execution trace for use with the
// lower-level internal API.
func (t *Trace) WET() *WET { return t.w }

// Tier returns the tier this handle's queries read.
func (t *Trace) Tier() Tier { return t.tier }

// AtTier returns a handle over the same WET that queries at the given tier.
// Tier 1 is what a single-epoch build keeps: at Tier1 of a streamed build
// or an opened file every query refuses with a *CapabilityError naming
// CapTier1.
func (t *Trace) AtTier(tier Tier) *Trace { return &Trace{w: t.w, tier: tier} }

// Report bundles every machine-readable account a trace carries, with
// consistent snake_case JSON casing across the family: the compression
// size report, the fidelity report of a byte-budgeted freeze, and the
// salvage report of a damaged-file open. Fields not applicable to how this trace was produced
// are nil (and omitted from JSON).
type Report struct {
	Size     *SizeReport     `json:"size,omitempty"`
	Fidelity *FidelityReport `json:"fidelity,omitempty"`
	Salvage  *SalvageReport  `json:"salvage,omitempty"`
}

func (r *Report) String() string {
	if r == nil {
		return "no report"
	}
	s := ""
	if r.Size != nil {
		s += r.Size.String()
	}
	if r.Fidelity.Degraded() {
		s += r.Fidelity.String() + "\n"
	}
	return s
}

// Report returns the trace's report bundle. The Size field is nil before
// Freeze; Fidelity is non-nil only for byte-budgeted traces; Salvage
// carries over from Open when it reported one.
func (t *Trace) Report() *Report {
	r := &Report{Size: t.w.Report(), Fidelity: t.w.Fidelity}
	if t.open != nil {
		r.Salvage = t.open.Salvage
	}
	return r
}

// Fidelity returns the machine-readable account of the byte-budgeted
// freeze that produced this trace: budget, lossless floor, achieved size,
// and exactly which streams were kept, degraded, or dropped. Nil when the
// trace was built without WithByteBudget; Degraded() false when the budget
// sat at or above the lossless floor (the container is then byte-identical
// to an unbudgeted freeze). Loaded traces recover the report from the
// container's fidelity section.
func (t *Trace) Fidelity() *FidelityReport { return t.w.Fidelity }

// SeekStats returns this trace's cumulative cursor seek statistics (seeks
// issued, checkpoint restores used, steps walked). Zero when the trace
// carries no counter set (an unfrozen WET wrapped by NewTrace).
func (t *Trace) SeekStats() SeekStats {
	if c := t.w.SeekCounters(); c != nil {
		return c.Read()
	}
	return SeekStats{}
}

// Segmented reports whether the trace was built epoch-segmented.
func (t *Trace) Segmented() bool { return t.w.Segmented() }

// EpochTS returns the epoch size in timestamps (0 = single-epoch).
func (t *Trace) EpochTS() uint32 { return t.w.EpochTS }

// Epochs returns the number of sealed epochs (0 for single-epoch traces).
func (t *Trace) Epochs() int { return t.w.Epochs }

// Time returns the trace length: the timestamp of the last statement.
func (t *Trace) Time() uint32 { return t.w.Time }

// Validate checks the structural invariants of the trace.
func (t *Trace) Validate() error { return t.w.Validate() }

// Save writes the frozen trace to w (format v3, or v4 when segmented).
func (t *Trace) Save(w io.Writer) error { return wetio.Save(w, t.w) }

// SaveFile writes the frozen trace to path atomically (temp file + fsync +
// rename): a crash or failure mid-save leaves any previous file intact.
func (t *Trace) SaveFile(path string) error { return wetio.SaveFile(path, t.w) }

// SaveFileCtx is SaveFile with cooperative cancellation; a cancelled save
// removes its temp file and returns context.Cause.
func (t *Trace) SaveFileCtx(ctx context.Context, path string) error {
	return wetio.SaveFileCtx(ctx, path, t.w)
}

// Walker returns a bidirectional control-flow walker at the handle's tier.
func (t *Trace) Walker() *Walker { return query.NewWalker(t.w, t.tier) }

// ExtractControlFlow walks the entire control-flow trace (forward or
// backward), calling emit per executed statement; it returns the count. It
// returns no error, so what the other queries return it panics with: a
// *CapabilityError at Tier1 of a trace that keeps tier 2 only, a
// *DecodeError from a lazily opened stream whose deferred decode fails.
func (t *Trace) ExtractControlFlow(forward bool, emit func(stmtID int)) uint64 {
	return query.ExtractCF(t.w, t.tier, forward, emit)
}

// ExtractCFRange walks the control-flow trace between two timestamps
// (inclusive). An inverted range returns a *RangeError; a range merely
// clipped by the ends of the trace is extracted as far as it exists.
func (t *Trace) ExtractCFRange(fromTS, toTS uint32, emit func(stmtID int)) (uint64, error) {
	return query.ExtractCFRange(t.w, t.tier, fromTS, toTS, emit)
}

// ValueTrace extracts the per-instruction value trace of one statement.
func (t *Trace) ValueTrace(stmtID int, emit func(Sample)) (uint64, error) {
	return query.ValueTrace(t.w, t.tier, stmtID, emit)
}

// AddressTrace extracts the per-instruction address trace of a load/store.
func (t *Trace) AddressTrace(stmtID int, emit func(Sample)) (uint64, error) {
	return query.AddressTrace(t.w, t.tier, stmtID, emit)
}

// InstanceOfTS locates a statement's instance at a given timestamp.
func (t *Trace) InstanceOfTS(stmtID int, ts uint32) (Instance, error) {
	return query.InstanceOfTS(t.w, t.tier, stmtID, ts)
}

// Backward computes the backward WET slice of an instance: the criterion
// first, then every other member in (Node, Ord, Pos) order. With
// maxInstances > 0 it is the criterion and the first maxInstances-1
// instances reached in descending time order (query.BackwardSliceOpts).
func (t *Trace) Backward(from Instance, maxInstances int) (*SliceResult, error) {
	return query.BackwardSlice(t.w, t.tier, from, maxInstances)
}

// Forward computes the forward WET slice of an instance.
func (t *Trace) Forward(from Instance, maxInstances int) (*SliceResult, error) {
	return query.ForwardSlice(t.w, t.tier, from, maxInstances)
}

// Chop computes the slice intersection: the instances through which `from`
// influenced `to`.
func (t *Trace) Chop(from, to Instance, maxInstances int) (*SliceResult, error) {
	return query.Chop(t.w, t.tier, from, to, maxInstances)
}

// DependenceChain follows one backward dependence chain from an instance,
// up to maxLen links: operand opIdx first (the control dependence when
// opIdx < 0), operand 0 from there on.
func (t *Trace) DependenceChain(from Instance, opIdx, maxLen int) ([]Instance, error) {
	return query.DependenceChain(t.w, t.tier, from, opIdx, maxLen)
}

// HotPaths ranks path nodes by dynamic statement coverage.
func (t *Trace) HotPaths(n int) []HotPath { return query.HotPaths(t.w, n) }

// WriteDOT renders a slice as a Graphviz digraph of dynamic instances and
// their dependences.
func (t *Trace) WriteDOT(res *SliceResult, out io.Writer) error {
	return query.WriteDOT(t.w, t.tier, res, out)
}

// ValueInvariance profiles value predictability of every def statement.
func (t *Trace) ValueInvariance(minExecs uint64) ([]Invariance, error) {
	return query.ValueInvariance(t.w, t.tier, minExecs)
}

// StrideProfiles classifies every load/store's address stream.
func (t *Trace) StrideProfiles(minAccesses int) ([]StrideProfile, error) {
	return query.StrideProfiles(t.w, t.tier, minAccesses)
}

// Races runs happens-before and lockset race detection over the trace's
// concurrency streams at the handle's tier (see internal racecheck rules
// RC001–RC003). A single-threaded trace — or one loaded from a
// pre-concurrency file — yields a report with Concurrent == false and no
// findings.
func (t *Trace) Races() (*RaceReport, error) {
	return racecheck.Check(t.w, t.tier)
}

// RaceReport is the result of Races.
type RaceReport = racecheck.Report

// DataRace is one finding of a RaceReport.
type DataRace = racecheck.Race

// RangeError reports an inverted timestamp range handed to ExtractCFRange.
type RangeError = query.RangeError

// StmtError reports a statement id outside the traced program handed to
// ValueTrace, AddressTrace or InstanceOfTS.
type StmtError = query.StmtError
