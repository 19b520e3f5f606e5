package wet

import (
	"context"

	"wet/internal/interp"
)

// RunOption configures Run. Options shared with Open (WithWorkers,
// WithContext) satisfy both interfaces.
type RunOption interface{ applyRun(*runConfig) }

// OpenOption configures Open.
type OpenOption interface{ applyOpen(*openConfig) }

// Option is accepted by both Run and Open: the shared resource knobs
// (worker pool, cancellation context) mean the same thing on both paths.
type Option interface {
	RunOption
	OpenOption
}

// runConfig is what the functional options compile down to: the
// interpreter and freeze options Run hands to the builder, plus the
// determinism re-check switch.
type runConfig struct {
	run   interp.Options
	frz   FreezeOptions
	check bool
}

type runOptionFunc func(*runConfig)

func (f runOptionFunc) applyRun(c *runConfig) { f(c) }

type openOptionFunc func(*openConfig)

func (f openOptionFunc) applyOpen(c *openConfig) { f(c) }

// dualOption is a shared knob with a meaning on each path.
type dualOption struct {
	run  func(*runConfig)
	open func(*openConfig)
}

func (o dualOption) applyRun(c *runConfig)   { o.run(c) }
func (o dualOption) applyOpen(c *openConfig) { o.open(c) }

// --- options shared by Run and Open ---

// WithWorkers bounds the parallel stage of either path: for Run, the
// tier-2 compression worker pool; for Open, the goroutines decoding node
// and edge sections. 0 means GOMAXPROCS, 1 forces the serial path. Both
// stages are deterministic — results are bit-identical at every width.
func WithWorkers(n int) Option {
	return dualOption{
		run:  func(c *runConfig) { c.frz.Workers = n },
		open: func(c *openConfig) { c.workers = n },
	}
}

// WithContext makes the run or open cancellable: the interpreter polls the
// context every 4096 steps and the freeze pipeline between jobs; the
// streaming read aborts within one buffer refill and section decode between
// sections. A cancelled call returns the context's cancellation cause.
func WithContext(ctx context.Context) Option {
	return dualOption{
		run:  func(c *runConfig) { c.run.Ctx = ctx; c.frz.Ctx = ctx },
		open: func(c *openConfig) { c.ctx = ctx },
	}
}

// --- Run-only options ---

// WithInputs sets the input tape consumed by the program's input
// statements.
func WithInputs(inputs ...int64) RunOption {
	return runOptionFunc(func(c *runConfig) { c.run.Inputs = inputs })
}

// WithMaxSteps bounds the interpreted run (0 = a large default).
func WithMaxSteps(n uint64) RunOption {
	return runOptionFunc(func(c *runConfig) { c.run.MaxSteps = n })
}

// WithSeed drives the deterministic thread scheduler of concurrent
// programs; single-threaded runs ignore it.
func WithSeed(seed uint64) RunOption {
	return runOptionFunc(func(c *runConfig) { c.run.Seed = seed })
}

// WithArch attaches a sink receiving branch/memory outcomes (see
// ArchRecorder in internal/interp).
func WithArch(sink interp.ArchSink) RunOption {
	return runOptionFunc(func(c *runConfig) { c.run.Arch = sink })
}

// WithCheckDeterminism re-verifies the tier-1 value-grouping invariant on
// every node execution (slower; useful in tests).
func WithCheckDeterminism() RunOption {
	return runOptionFunc(func(c *runConfig) { c.check = true })
}

// WithEpochTS sets the builder's epoch size: the dynamic profile is sealed
// and tier-2 compressed in epochs of n timestamps while the interpreter
// runs, bounding peak memory by the epoch size. 0 (the default) is one
// epoch, which keeps tier 1 and is compressed whole when the run ends.
func WithEpochTS(n uint32) RunOption {
	return runOptionFunc(func(c *runConfig) { c.frz.EpochTS = n })
}

// WithByteBudget sets a hard ceiling, in bytes, on the serialized container
// size of the frozen trace. A budget at or above the lossless floor changes
// nothing — the container stays byte-identical to an unbudgeted run. Below
// the floor, the freeze descends an ordered lossy ladder — uncompressed-
// value group streams first, then dependence-edge labels, then widening
// node timestamps to a sampled stride — until the projected size fits, and
// records exactly what it shed in the trace's FidelityReport
// (Trace.Fidelity, serialized with the container). Queries over kept
// streams stay exact; queries needing dropped data fail with a typed
// *CapabilityError, never wrong results. A budget no ladder can reach
// fails the run with a *BudgetError.
func WithByteBudget(bytes uint64) RunOption {
	return runOptionFunc(func(c *runConfig) { c.frz.ByteBudget = bytes })
}
