package wetio

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"

	"wet/internal/atomicfile"
	"wet/internal/core"
	"wet/internal/faultpoint"
)

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Failpoints of the IO layer. wetio.save.write fires inside every Write of
// a Save (one per 64 KiB or so of whole sections); with the
// "short" action it writes half the chunk and then fails, producing
// exactly the torn tail the salvage loader is built for. wetio.load.read
// fires inside every Read feeding a Load or Verify.
var (
	fpSaveWrite = faultpoint.New("wetio.save.write")
	fpLoadRead  = faultpoint.New("wetio.load.read")
)

// failWriter consults the wetio.save.write point on every Write.
type failWriter struct{ w io.Writer }

func (fw failWriter) Write(p []byte) (int, error) {
	if err := fpSaveWrite.Hit(); err != nil {
		if errors.Is(err, faultpoint.ErrShort) && len(p) > 1 {
			n, _ := fw.w.Write(p[:len(p)/2])
			return n, err
		}
		return 0, err
	}
	return fw.w.Write(p)
}

// failReader consults the wetio.load.read point on every Read. The
// "short" action presents as a clean truncation (ErrUnexpectedEOF), which
// the framing layer reports as a truncated file; other actions surface
// the injected error itself.
type failReader struct{ r io.Reader }

func (fr failReader) Read(p []byte) (int, error) {
	if err := fpLoadRead.Hit(); err != nil {
		if errors.Is(err, faultpoint.ErrShort) {
			return 0, io.ErrUnexpectedEOF
		}
		return 0, err
	}
	return fr.r.Read(p)
}

// ctxReader aborts a read when its context dies, bounding cancellation
// latency on the load path to one Read of the source.
type ctxReader struct {
	ctx context.Context
	r   io.Reader
}

func (cr ctxReader) Read(p []byte) (int, error) {
	if cr.ctx.Err() != nil {
		return 0, context.Cause(cr.ctx)
	}
	return cr.r.Read(p)
}

// loadReader stacks the robustness wrappers over a source about to be read:
// failpoint innermost (it stands in for the device), context on top.
func loadReader(ctx context.Context, r io.Reader) io.Reader {
	r = failReader{r}
	if ctx != nil && ctx.Done() != nil {
		r = ctxReader{ctx, r}
	}
	return r
}

// readFault sorts a read error: io.EOF and io.ErrUnexpectedEOF merely end the
// file — how much of a container a short file still holds is the parsers' to
// say, as truncation — and come back nil. Anything else (a device fault, a
// dead context) is not file damage and is returned, wrapped, to fail the
// load or the walk as itself.
func readFault(err error) error {
	if err == nil || err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
		return nil
	}
	return fmt.Errorf("wetio: reading the container: %w", err)
}

// ctxCause returns the context's cancellation cause when it died, else
// err. Error paths use it so a cancelled load reports context.Canceled /
// DeadlineExceeded (with Cause preserved) rather than whatever partial
// read the cancellation happened to interrupt, and never wraps the
// cancellation in a *FormatError — a cancelled file is not a corrupt one.
func ctxCause(ctx context.Context, err error) error {
	if ctx != nil && ctx.Err() != nil {
		return context.Cause(ctx)
	}
	return err
}

// orBackground keeps nil contexts out of the hot paths.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// SaveCtx is Save with cooperative cancellation: the section emit loop
// checks the context between sections (node and edge records are the unit
// of progress) and returns context.Cause on cancellation. The output is
// torn at a section boundary in that case — pair with SaveFileCtx for a
// destination that never observes the tear.
func SaveCtx(ctx context.Context, w io.Writer, wet *core.WET) error {
	return saveCtx(orBackground(ctx), w, wet)
}

// SaveFile writes the WET to path atomically: through a temp file in the
// same directory, fsynced, and renamed over the target only once every
// section (end marker included) is durable. A crash, ENOSPC, or
// cancellation mid-save leaves the previous file intact and no temp
// droppings; the new file appears all-or-nothing.
func SaveFile(path string, wet *core.WET) error {
	return SaveFileCtx(context.Background(), path, wet)
}

// SaveFileCtx is SaveFile with cooperative cancellation (see SaveCtx).
func SaveFileCtx(ctx context.Context, path string, wet *core.WET) error {
	// Fail before creating the temp file, not after: a WET that cannot
	// serialize should not churn the destination directory.
	if !wet.Frozen() {
		return fmt.Errorf("wetio: WET must be frozen before saving")
	}
	return atomicfile.Write(path, func(w io.Writer) error {
		return SaveCtx(ctx, w, wet)
	})
}

// Load working-set model (order-of-magnitude, like the freeze planner's):
// scanSections has already materialized every payload, so the base cost is
// known exactly; what the ladder controls is the expansion beyond it.
const (
	// decodeExpansion approximates decoded stream state (entry stores,
	// predictor tables, checkpoints) per serialized payload byte.
	decodeExpansion = 6
	// lazyExpansion approximates a lazily opened container: serialized
	// state retained plus the structural skeleton, no decoded streams.
	lazyExpansion = 2
)

// planLoadBudget applies LoadOptions.MemBudget to a strict framed load.
// The ladder, in order: parallel decode falls back to serial (sheds the
// in-flight per-worker decode transients), eager decode falls back to lazy
// first-touch materialization. Salvage and VerifyStreams pin the eager
// rungs (both must decode to do their job), so those rungs are skipped
// rather than violated. Returns the adjusted options and the rungs taken
// (nil when no budget was set or nothing degraded).
func planLoadBudget(opts LoadOptions, secs []section) (LoadOptions, *core.DegradationReport) {
	if opts.MemBudget == 0 {
		return opts, nil
	}
	var payload, maxSection uint64
	for i := range secs {
		n := uint64(len(secs[i].payload))
		maxSection = max(maxSection, n)
		if secs[i].tag == secNode || secs[i].tag == secEdge {
			payload += n
		}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	est := func() uint64 {
		e := payload * decodeExpansion
		if opts.deferred() {
			e = payload * lazyExpansion
		}
		if workers > 1 {
			// Transient: each extra worker holds one section's decoded
			// state in flight beyond the final resting cost.
			e += uint64(workers-1) * maxSection * decodeExpansion
		}
		return e
	}
	estimate := est()
	if estimate <= opts.MemBudget {
		return opts, nil
	}
	var rep *core.DegradationReport
	add := func(point, from, to, reason string, before uint64) {
		if rep == nil {
			rep = &core.DegradationReport{BudgetBytes: opts.MemBudget, EstimateBytes: estimate}
		}
		rep.Actions = append(rep.Actions, core.DegradationAction{
			Point: point, From: from, To: to,
			SavedBytes: before - est(), Reason: reason,
		})
	}
	if workers > 1 {
		before := est()
		from := fmt.Sprintf("%d workers", workers)
		workers, opts.Workers = 1, 1
		add(core.DegradeSerialDecode, from, "serial",
			"per-worker in-flight section decode exceeds the budget", before)
	}
	if est() > opts.MemBudget && !opts.deferred() && !opts.VerifyStreams && !opts.Salvage {
		before := est()
		opts.Lazy = true
		add(core.DegradeLazyStreams, "eager", "lazy first-touch",
			"eagerly decoded stream state exceeds the budget", before)
	}
	if rep != nil {
		rep.FinalBytes = est()
	}
	return opts, rep
}
