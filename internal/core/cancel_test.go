package core_test

// Cancellation and fault-injection coverage for the build/freeze pipeline:
// prompt cooperative cancellation mid-build and mid-freeze, typed worker
// faults, retryability after a failed freeze, and budget degradation.

import (
	"context"
	"errors"
	"testing"
	"time"

	"wet/internal/core"
	"wet/internal/faultpoint"
	"wet/internal/interp"
	"wet/internal/leakcheck"
	"wet/internal/workload"
)

// analyzed builds a workload's static analysis at a scale targeting
// roughly targetStmts dynamic statements.
func analyzed(t *testing.T, name string, targetStmts uint64) (*interp.Static, []int64) {
	t.Helper()
	wl, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	scale, err := workload.ScaleFor(wl, targetStmts)
	if err != nil {
		t.Fatal(err)
	}
	prog, in := wl.Build(scale)
	st, err := interp.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	return st, in
}

// unfrozen builds a raw WET ready to freeze.
func unfrozen(t *testing.T, name string) *core.WET {
	t.Helper()
	st, in := analyzed(t, name, 200_000)
	w, _, err := core.Build(st, interp.Options{Inputs: in})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestBuildStreamingCancelledPromptly cancels a streaming build mid-run
// and requires the cancellation cause back within 100ms, with every
// interpreter and pool goroutine gone.
func TestBuildStreamingCancelledPromptly(t *testing.T) {
	defer leakcheck.Check(t)()
	st, in := analyzed(t, "li", 8_000_000)
	cause := errors.New("operator abort")
	ctx, cancel := context.WithCancelCause(context.Background())
	type result struct {
		err error
		at  time.Time
	}
	done := make(chan result, 1)
	go func() {
		_, _, _, err := core.BuildStreaming(st, interp.Options{Ctx: ctx, Inputs: in},
			core.FreezeOptions{EpochTS: 1 << 14})
		done <- result{err, time.Now()}
	}()
	time.Sleep(30 * time.Millisecond)
	cancelled := time.Now()
	cancel(cause)
	res := <-done
	if !errors.Is(res.err, cause) {
		t.Fatalf("cancelled build returned %v, want the cancellation cause", res.err)
	}
	if lat := res.at.Sub(cancelled); lat > 100*time.Millisecond {
		t.Fatalf("cancelled build returned after %v, want <= 100ms", lat)
	}
}

// TestFreezeErrCancelledMidPool cancels a freeze whose workers are held on
// an injected stall: the pool must stop claiming jobs, return the cause
// within 100ms plus one stalled job, and leave the WET retryable.
func TestFreezeErrCancelledMidPool(t *testing.T) {
	defer leakcheck.Check(t)()
	w := unfrozen(t, "li")
	if err := faultpoint.Arm("core.freeze.job", faultpoint.Spec{Action: faultpoint.ActSleep, Detail: "10ms"}); err != nil {
		t.Fatal(err)
	}
	cause := errors.New("operator abort")
	ctx, cancel := context.WithCancelCause(context.Background())
	type result struct {
		err error
		at  time.Time
	}
	done := make(chan result, 1)
	go func() {
		_, err := w.FreezeErr(core.FreezeOptions{Ctx: ctx, Workers: 4})
		done <- result{err, time.Now()}
	}()
	time.Sleep(25 * time.Millisecond)
	cancelled := time.Now()
	cancel(cause)
	res := <-done
	faultpoint.DisarmAll()
	if !errors.Is(res.err, cause) {
		t.Fatalf("cancelled freeze returned %v, want the cancellation cause", res.err)
	}
	if lat := res.at.Sub(cancelled); lat > 100*time.Millisecond {
		t.Fatalf("cancelled freeze returned after %v, want <= 100ms", lat)
	}
	if w.Frozen() {
		t.Fatal("cancelled freeze left the WET frozen")
	}
	// The failed freeze released its partial state: a retry succeeds and
	// produces a complete report.
	rep, err := w.FreezeErr(core.FreezeOptions{})
	if err != nil || rep == nil {
		t.Fatalf("freeze retry after cancellation failed: %v", err)
	}
}

// TestFreezeErrInjectedFault: an injected worker error surfaces as the
// typed *faultpoint.Error, the WET stays unfrozen, and a retry succeeds.
func TestFreezeErrInjectedFault(t *testing.T) {
	w := unfrozen(t, "li")
	if err := faultpoint.Arm("core.freeze.job", faultpoint.Spec{Action: faultpoint.ActErr, After: 3}); err != nil {
		t.Fatal(err)
	}
	_, err := w.FreezeErr(core.FreezeOptions{Workers: 4})
	faultpoint.DisarmAll()
	var fe *faultpoint.Error
	if !errors.As(err, &fe) || fe.Point != "core.freeze.job" {
		t.Fatalf("injected freeze fault surfaced as %v, want *faultpoint.Error", err)
	}
	if w.Frozen() {
		t.Fatal("failed freeze left the WET frozen")
	}
	if _, err := w.FreezeErr(core.FreezeOptions{}); err != nil {
		t.Fatalf("freeze retry after injected fault failed: %v", err)
	}
}

// TestFreezeErrWorkerPanicTyped: a panicking worker surfaces as a typed
// *core.PanicError instead of crashing the process.
func TestFreezeErrWorkerPanicTyped(t *testing.T) {
	w := unfrozen(t, "li")
	if err := faultpoint.Arm("core.freeze.job", faultpoint.Spec{Action: faultpoint.ActPanic, After: 2}); err != nil {
		t.Fatal(err)
	}
	_, err := w.FreezeErr(core.FreezeOptions{Workers: 4})
	faultpoint.DisarmAll()
	if err == nil {
		t.Fatal("panicking freeze worker reported success")
	}
	var pe *core.PanicError
	var fe *faultpoint.Error
	if !errors.As(err, &pe) && !errors.As(err, &fe) {
		t.Fatalf("worker panic surfaced as %v, want *core.PanicError or *faultpoint.Error", err)
	}
	if _, err := w.FreezeErr(core.FreezeOptions{}); err != nil {
		t.Fatalf("freeze retry after worker panic failed: %v", err)
	}
}

// TestSealEpochInjectedFault: a fault at epoch-seal time, or in one of the
// seal's compression jobs, aborts the streaming build with the typed
// injected error — no hang, no partial WET, no goroutine left behind.
func TestSealEpochInjectedFault(t *testing.T) {
	st, in := analyzed(t, "li", 200_000)
	for _, point := range []string{"core.seal.epoch", "core.freeze.job"} {
		for _, workers := range []int{1, 4} {
			func() {
				defer leakcheck.Check(t)()
				if err := faultpoint.Arm(point, faultpoint.Spec{Action: faultpoint.ActErr, After: 2}); err != nil {
					t.Fatal(err)
				}
				defer faultpoint.DisarmAll()
				w, _, _, err := core.BuildStreaming(st, interp.Options{Inputs: in},
					core.FreezeOptions{EpochTS: 1 << 12, Workers: workers})
				var fe *faultpoint.Error
				if !errors.As(err, &fe) || fe.Point != point {
					t.Fatalf("%s, %d workers: injected fault surfaced as %v, want *faultpoint.Error", point, workers, err)
				}
				if w != nil {
					t.Fatalf("%s, %d workers: failed streaming build returned a partial WET", point, workers)
				}
			}()
		}
	}
}

// TestSealWorkerPanicNamesItsOp: a panicking seal job fails the streaming
// build with a *core.PanicError naming the seal, not the process.
func TestSealWorkerPanicNamesItsOp(t *testing.T) {
	defer leakcheck.Check(t)()
	st, in := analyzed(t, "li", 200_000)
	if err := faultpoint.Arm("core.freeze.job", faultpoint.Spec{Action: faultpoint.ActPanic, After: 2}); err != nil {
		t.Fatal(err)
	}
	defer faultpoint.DisarmAll()
	_, _, _, err := core.BuildStreaming(st, interp.Options{Inputs: in},
		core.FreezeOptions{EpochTS: 1 << 12, Workers: 4})
	var pe *core.PanicError
	if !errors.As(err, &pe) || pe.Op != "seal" {
		t.Fatalf("seal panic surfaced as %v, want *core.PanicError with Op \"seal\"", err)
	}
}

// TestBuildCancelledBeforeStart: a context dead on entry returns its cause
// without running a single interpreter step.
func TestBuildCancelledBeforeStart(t *testing.T) {
	st, in := analyzed(t, "li", 200_000)
	cause := errors.New("operator abort")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	start := time.Now()
	_, _, _, err := core.BuildStreaming(st, interp.Options{Ctx: ctx, Inputs: in}, core.FreezeOptions{})
	if !errors.Is(err, cause) {
		t.Fatalf("pre-cancelled build returned %v, want the cause", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("pre-cancelled build ran for %v", d)
	}
}
