package core

import (
	"fmt"
	"runtime"
)

// Degradation points: where a memory budget changed the plan. The names
// are stable machine-readable identifiers (they appear in JSON reports and
// CI logs), not prose.
const (
	// DegradeSerialDecode: parallel section decode fell back to serial.
	DegradeSerialDecode = "load.parallel-decode"
	// DegradeLazyStreams: eager stream materialization fell back to lazy
	// first-touch decode.
	DegradeLazyStreams = "load.eager-streams"
	// DegradeSerialFreeze: the tier-2 compression pool fell back to serial.
	DegradeSerialFreeze = "freeze.parallel-workers"
	// DegradeShrinkEpoch: the streaming epoch size was shrunk so one
	// epoch's tier-1 buffers fit the budget.
	DegradeShrinkEpoch = "freeze.epoch-ts"
)

// DegradationAction is one rung of the ladder that was actually taken.
type DegradationAction struct {
	// Point names what was degraded (Degrade* constants).
	Point string `json:"point"`
	// From and To describe the change in that point's units (worker
	// counts, modes, epoch sizes) as strings so the report is uniform.
	From string `json:"from"`
	To   string `json:"to"`
	// SavedBytes is the planner's estimate of working-set bytes shed.
	SavedBytes uint64 `json:"saved_bytes"`
	Reason     string `json:"reason"`
}

// DegradationReport is the machine-readable account of what a MemBudget
// traded away. A nil report means no budget was set or nothing had to
// degrade; an empty Actions list never happens (the report exists only
// when at least one rung was taken).
type DegradationReport struct {
	// BudgetBytes is the soft ceiling that was requested.
	BudgetBytes uint64 `json:"budget_bytes"`
	// EstimateBytes is the planner's working-set estimate before degrading.
	EstimateBytes uint64 `json:"estimate_bytes"`
	// FinalBytes is the estimate after every action was applied. It can
	// still exceed the budget: the ladder has a floor (serial, lazy,
	// minimum epoch) and the budget is soft — the pipeline degrades as far
	// as it can and reports honestly rather than failing.
	FinalBytes uint64              `json:"final_bytes"`
	Actions    []DegradationAction `json:"actions"`
}

func (r *DegradationReport) String() string {
	if r == nil {
		return "no degradation"
	}
	s := fmt.Sprintf("budget %d B, estimated %d B, degraded to %d B:", r.BudgetBytes, r.EstimateBytes, r.FinalBytes)
	for _, a := range r.Actions {
		s += fmt.Sprintf("\n  %s: %s -> %s (saves ~%d B): %s", a.Point, a.From, a.To, a.SavedBytes, a.Reason)
	}
	return s
}

// add records one rung, allocating the report on first use.
func (r *DegradationReport) add(a DegradationAction) *DegradationReport {
	if r == nil {
		r = &DegradationReport{}
	}
	r.Actions = append(r.Actions, a)
	return r
}

// Freeze working-set model. The planner needs only order-of-magnitude
// estimates: the budget is a soft ceiling steering coarse mode choices
// (parallel vs serial, epoch size), not an allocator limit.
const (
	// scratchBytesPerWorker approximates one stream.Scratch: the pooled
	// FCM/dFCM/last-n predictor tables a freeze worker owns for the
	// selection dry-runs.
	scratchBytesPerWorker = 4 << 20
	// bytesPerEpochTS approximates the tier-1 bytes one timestamp of a
	// sealed epoch holds across node TS, group pattern/unique-value, and
	// edge label slices (measured on the paper workloads: tens of bytes
	// per dynamic path; 64 is the conservative round number).
	bytesPerEpochTS = 64
	// minEpochTS is the floor of the epoch-shrinking rung: below 4096
	// timestamps per epoch the per-segment overheads (stream headers,
	// cursor state, segment bookkeeping) dominate what shrinking saves.
	minEpochTS = 1 << 12
)

// planFreezeBudget applies FreezeOptions.MemBudget to the freeze plan
// before any work starts: parallel workers fall back to serial, then a
// streaming build's epoch is shrunk (power-of-two steps, floored at
// minEpochTS). Returns the adjusted options and a report of the rungs
// taken (nil when nothing degraded).
func planFreezeBudget(opts FreezeOptions) (FreezeOptions, *DegradationReport) {
	if opts.MemBudget == 0 {
		return opts, nil
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	estimate := uint64(workers)*scratchBytesPerWorker + uint64(opts.EpochTS)*bytesPerEpochTS
	var rep *DegradationReport
	final := estimate
	if workers > 1 && final > opts.MemBudget {
		saved := uint64(workers-1) * scratchBytesPerWorker
		rep = rep.add(DegradationAction{
			Point: DegradeSerialFreeze,
			From:  fmt.Sprintf("%d workers", workers), To: "serial",
			SavedBytes: saved,
			Reason:     "per-worker predictor scratch exceeds the budget",
		})
		final -= saved
		opts.Workers = 1
	}
	if opts.EpochTS > minEpochTS {
		e := opts.EpochTS
		for e/2 >= minEpochTS && final > opts.MemBudget {
			final -= uint64(e/2) * bytesPerEpochTS // halving sheds half the epoch buffer
			e /= 2
		}
		if e != opts.EpochTS {
			rep = rep.add(DegradationAction{
				Point: DegradeShrinkEpoch,
				From:  fmt.Sprintf("%d", opts.EpochTS), To: fmt.Sprintf("%d", e),
				SavedBytes: uint64(opts.EpochTS-e) * bytesPerEpochTS,
				Reason:     "one epoch of tier-1 label buffers exceeds the budget",
			})
			opts.EpochTS = e
		}
	}
	if rep != nil {
		rep.BudgetBytes = opts.MemBudget
		rep.EstimateBytes = estimate
		rep.FinalBytes = final
	}
	return opts, rep
}
