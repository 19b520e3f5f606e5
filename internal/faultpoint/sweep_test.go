package faultpoint_test

// The failpoint sweep: every registered injection point, crossed with every
// action it can take, is armed against the full pipeline — build, streaming
// freeze, atomic save, load, queries, and the corpus-serving stack — and
// every injected fault must surface as a typed error. Never a panic, never a hang, never a corrupt
// file left behind. This is the harness that keeps the failpoint catalog
// honest: a point that stops being exercised by the pipeline fails the
// sweep, because an unrehearsed failure path is an untested one.
//
// WET_SWEEP_WORKLOADS widens the workload set (CI runs li,gzip,mcf); the
// default keeps the sweep to one workload so `go test ./...` stays fast.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wet/internal/core"
	"wet/internal/corpus"
	"wet/internal/faultpoint"
	"wet/internal/interp"
	"wet/internal/query"
	"wet/internal/serve"
	"wet/internal/stream"
	"wet/internal/wetio"
	"wet/internal/workload"
)

// watchdog bounds one sweep case; a case that outlives it is a hang, which
// the sweep treats as a first-class failure, not a slow test.
const watchdog = 90 * time.Second

// panicSafe are the points allowed the "panic" action: their sites sit
// under a recover boundary (worker pools, batch jobs) that must convert
// the panic into a typed error. Everywhere else an injected panic would
// legitimately crash the caller, so the sweep does not inject one.
var panicSafe = map[string]bool{
	"core.freeze.job": true,
	"core.seal.epoch": true,
	"query.batch.job": true,
}

// sweepActions returns the actions to rehearse at one point.
func sweepActions(point string) []string {
	acts := []string{faultpoint.ActErr, faultpoint.ActENOSPC, faultpoint.ActShort, faultpoint.ActSleep}
	if panicSafe[point] {
		acts = append(acts, faultpoint.ActPanic)
	}
	return acts
}

// sweepWorkloads returns the workloads to drive the pipeline with.
func sweepWorkloads() []string {
	if env := os.Getenv("WET_SWEEP_WORKLOADS"); env != "" {
		return strings.Split(env, ",")
	}
	return []string{"li"}
}

// typedFault reports whether err is one of the typed failures the pipeline
// is allowed to surface: the injected fault itself, a format/decode error
// the fault was translated into, a recovered pool panic, or a context
// verdict. Anything else is an untyped leak.
func typedFault(err error) bool {
	var (
		fpErr  *faultpoint.Error
		fmtErr *wetio.FormatError
		decErr *stream.DecodeError
		pErr   *core.PanicError
	)
	return errors.As(err, &fpErr) || errors.As(err, &fmtErr) ||
		errors.As(err, &decErr) || errors.As(err, &pErr) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// runPipeline drives the whole stack once: streaming build with epoch
// seals, atomic save, lazy load, ctx-aware scans, and a slice batch. Any
// panic that escapes a recover boundary is reported as an error with a
// recognizable prefix so the sweep can distinguish it from a typed fault.
func runPipeline(dir, bench string) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("ESCAPED PANIC: %v", p)
		}
	}()
	wl, err := workload.ByName(bench)
	if err != nil {
		return err
	}
	scale, err := workload.ScaleFor(wl, 60_000)
	if err != nil {
		return err
	}
	prog, in := wl.Build(scale)
	st, err := interp.Analyze(prog)
	if err != nil {
		return err
	}
	// The effectively-unbounded byte budget keeps the freeze lossless while
	// still routing it through the budget planner, so core.budget.plan is
	// rehearsed on every sweep case.
	w, _, _, err := core.BuildStreaming(st, interp.Options{Inputs: in},
		core.FreezeOptions{EpochTS: 1 << 12, Workers: 4, ByteBudget: 1 << 40})
	if err != nil {
		return err
	}
	path := filepath.Join(dir, bench+".wet")
	if err := wetio.SaveFile(path, w); err != nil {
		// An atomic save that failed must not have created the file.
		if _, serr := os.Stat(path); !errors.Is(serr, os.ErrNotExist) {
			return fmt.Errorf("CORRUPT FILE: failed save left %s behind (%w)", path, err)
		}
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	loaded, err := wetio.Load(bytes.NewReader(data), wetio.LoadOptions{Lazy: true})
	if err != nil {
		return err
	}
	if _, err := query.ExtractCFCtx(context.Background(), loaded, core.Tier2, true, -1, nil); err != nil {
		return err
	}
	if _, err := query.ExtractCFRangeCtx(context.Background(), loaded, core.Tier2, 1, loaded.Time/2+1, -1, nil); err != nil {
		return err
	}
	last := loaded.Nodes[loaded.LastNode]
	crit := query.Instance{Node: loaded.LastNode, Pos: 0, Ord: last.Execs - 1}
	if err := query.BatchCtx(context.Background(), 2, 4, func(i int) error {
		_, err := query.BackwardSlice(loaded, core.Tier2, crit, 0)
		return err
	}); err != nil {
		return err
	}

	// Serving stage: the same bytes through the corpus registry and the
	// admission-controlled query service, so corpus.segment.load and
	// wetd.admit are rehearsed too. The starved budget forces real segment
	// loads (and so real load vetoes) instead of warm metadata hits.
	c := corpus.New(1 << 12)
	if _, err := c.Add(bench, data); err != nil {
		return err
	}
	srv := serve.New(c, serve.Options{Workers: 2, Queue: 8})
	if _, err := srv.Query(context.Background(), bench, "info", nil); err != nil {
		return err
	}
	_, err = srv.Query(context.Background(), bench, "cfrange",
		url.Values{"from": {"1"}, "to": {"64"}})
	return err
}

// TestFailpointSweep is the registry-driven sweep. For every point ×
// action: the pipeline must finish inside the watchdog, a firing fault
// must surface as a typed error (sleep excepted — it only delays), and the
// pipeline must actually exercise the point (a dead point means the
// catalog and the code have drifted apart).
func TestFailpointSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep runs the full pipeline per case")
	}
	points := faultpoint.Names()
	if len(points) < 8 {
		t.Fatalf("registry holds %d points, expected the full catalog: %v", len(points), points)
	}
	for _, bench := range sweepWorkloads() {
		for _, point := range points {
			if strings.HasPrefix(point, "test.") {
				continue // unit-test scaffolding, not pipeline points
			}
			for _, action := range sweepActions(point) {
				name := fmt.Sprintf("%s/%s=%s", bench, point, action)
				t.Run(name, func(t *testing.T) {
					dir := t.TempDir()
					if err := faultpoint.Arm(point, faultpoint.Spec{Action: action}); err != nil {
						t.Fatal(err)
					}
					defer faultpoint.DisarmAll()
					done := make(chan error, 1)
					go func() { done <- runPipeline(dir, bench) }()
					var err error
					select {
					case err = <-done:
					case <-time.After(watchdog):
						t.Fatalf("HANG: pipeline did not return within %v", watchdog)
					}
					fired := faultpoint.Lookup(point).Fired()
					if fired == 0 {
						t.Fatalf("pipeline never hit %s: the catalog has drifted from the code", point)
					}
					if err != nil && strings.HasPrefix(err.Error(), "ESCAPED PANIC") {
						t.Fatalf("injected %s escaped every recover boundary: %v", action, err)
					}
					if err != nil && strings.HasPrefix(err.Error(), "CORRUPT FILE") {
						t.Fatal(err)
					}
					if action == faultpoint.ActSleep {
						if err != nil {
							t.Fatalf("sleep action must only delay, got %v", err)
						}
						return
					}
					if err == nil {
						t.Fatalf("%s fired %d times but the pipeline reported success", point, fired)
					}
					if !typedFault(err) {
						t.Fatalf("injected %s surfaced untyped: %v", action, err)
					}
				})
			}
		}
	}
}
