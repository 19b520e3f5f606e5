package wetio

// Robustness harness for the IO layer: atomic saves under injected faults,
// torn-write recovery when the writer dies at a section boundary, prompt
// cooperative cancellation of loads and saves, and forged deferred decodes
// surfacing as typed errors under concurrent first touch.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"wet/internal/core"
	"wet/internal/faultpoint"
	"wet/internal/leakcheck"
	"wet/internal/query"
	"wet/internal/stream"
)

// noStrays asserts dir holds only the named file (or nothing when name is
// empty): failed saves must leave no temp droppings.
func noStrays(t *testing.T, dir, name string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != name {
			t.Fatalf("stray file %q left in %s", e.Name(), dir)
		}
	}
}

// TestSaveFileAtomicUnderInjectedFaults kills the save at every write the
// destination device would see (wetio.save.write fires per buffer flush)
// and at the fsync and rename steps: every failure must surface the typed
// injected error, keep the previous file byte-identical, and remove the
// temp file.
func TestSaveFileAtomicUnderInjectedFaults(t *testing.T) {
	w := buildFrozen(t, "li")
	dir := t.TempDir()
	path := filepath.Join(dir, "out.wet")
	if err := SaveFile(path, w); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	checkIntact := func(what string, err error) {
		t.Helper()
		var fe *faultpoint.Error
		if !errors.As(err, &fe) {
			t.Fatalf("%s: SaveFile returned %v, want *faultpoint.Error", what, err)
		}
		got, rerr := os.ReadFile(path)
		if rerr != nil || !bytes.Equal(got, orig) {
			t.Fatalf("%s: destination damaged after injected failure (%v)", what, rerr)
		}
		noStrays(t, dir, "out.wet")
	}

	// Every write ordinal until the save outruns the injection window.
	for k := 1; ; k++ {
		if err := faultpoint.Arm("wetio.save.write", faultpoint.Spec{Action: faultpoint.ActENOSPC, After: k}); err != nil {
			t.Fatal(err)
		}
		err := SaveFile(path, w)
		fired := faultpoint.Lookup("wetio.save.write").Fired()
		faultpoint.DisarmAll()
		if err == nil {
			if fired != 0 {
				t.Fatalf("write %d: injected fault fired but SaveFile succeeded", k)
			}
			break // fewer than k device writes: the sweep is complete
		}
		checkIntact("write", err)
	}
	// Short write: half a chunk lands, then the device fails.
	if err := faultpoint.Arm("wetio.save.write", faultpoint.Spec{Action: faultpoint.ActShort}); err != nil {
		t.Fatal(err)
	}
	checkIntact("short write", SaveFile(path, w))
	faultpoint.DisarmAll()
	// Fsync and rename failures after a fully written temp file.
	for _, point := range []string{"atomicfile.sync", "atomicfile.rename"} {
		if err := faultpoint.Arm(point, faultpoint.Spec{Action: faultpoint.ActENOSPC}); err != nil {
			t.Fatal(err)
		}
		checkIntact(point, SaveFile(path, w))
		faultpoint.DisarmAll()
	}
}

// TestSaveCancelledLeavesNoFile: a save cancelled before it starts returns
// the cancellation cause and never creates the destination.
func TestSaveCancelledLeavesNoFile(t *testing.T) {
	w := buildFrozen(t, "li")
	dir := t.TempDir()
	path := filepath.Join(dir, "out.wet")
	cause := errors.New("operator abort")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	err := SaveFileCtx(ctx, path, w)
	if !errors.Is(err, cause) {
		t.Fatalf("SaveFileCtx returned %v, want the cancellation cause", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("cancelled save created %s", path)
	}
	noStrays(t, dir, "")
}

// TestCrashKillAtEverySectionBoundary simulates a writer killed exactly
// between two section writes — the tear an unbuffered crash leaves — for
// both framed formats. The strict loader must reject every prefix; the
// salvage loader must recover a consistent prefix (or fail with a typed
// error on prefixes too short to hold the mandatory sections).
func TestCrashKillAtEverySectionBoundary(t *testing.T) {
	fixtures := map[string][]byte{
		"v3": savedWET(t, "li"),
		"v4": savedStreamedWET(t, "li"),
	}
	for name, data := range fixtures {
		bounds := sectionBoundaries(t, data)
		salvaged := 0
		for _, cut := range bounds {
			if cut >= int64(len(data)) {
				continue
			}
			prefix := data[:cut]
			if _, _, err := loadNoPanic(t, prefix, LoadOptions{}, name+" strict"); err == nil {
				t.Fatalf("%s: strict Load accepted a file killed at byte %d of %d", name, cut, len(data))
			} else {
				var fe *FormatError
				if !errors.As(err, &fe) {
					t.Fatalf("%s: killed file produced untyped error %v", name, err)
				}
			}
			w, rep, err := loadNoPanic(t, prefix, LoadOptions{Salvage: true}, name+" salvage")
			if err != nil {
				var fe *FormatError
				if !errors.As(err, &fe) {
					t.Fatalf("%s: salvage of killed file produced untyped error %v", name, err)
				}
				continue
			}
			if !rep.Truncated {
				t.Fatalf("%s: salvage of %d/%d bytes did not report truncation", name, cut, len(data))
			}
			checkSalvaged(t, w, rep, name+" kill")
			salvaged++
		}
		if salvaged == 0 {
			t.Fatalf("%s: no boundary kill was salvageable (%d boundaries)", name, len(bounds))
		}
	}
}

// chunkReader caps each Read at n bytes so a buffered load performs many
// device reads, giving cancellation checkpoints something to interleave.
type chunkReader struct {
	r io.Reader
	n int
}

func (cr chunkReader) Read(p []byte) (int, error) {
	if len(p) > cr.n {
		p = p[:cr.n]
	}
	return cr.r.Read(p)
}

// TestLoadCancelledPromptly cancels an in-flight parallel load, strict and
// salvage, of a v3 and a v4 file and requires each to return the
// cancellation cause within 100ms, without wrapping it in a *FormatError
// and without leaking pool goroutines.
func TestLoadCancelledPromptly(t *testing.T) {
	for name, data := range map[string][]byte{"v3": savedWET(t, "li"), "v4": savedStreamedWET(t, "li")} {
		for _, salvage := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/salvage=%v", name, salvage), func(t *testing.T) {
				defer leakcheck.Check(t)()
				if err := faultpoint.Arm("wetio.load.read", faultpoint.Spec{Action: faultpoint.ActSleep, Detail: "2ms"}); err != nil {
					t.Fatal(err)
				}
				defer faultpoint.DisarmAll()

				cause := errors.New("operator abort")
				ctx, cancel := context.WithCancelCause(context.Background())
				type result struct {
					err error
					at  time.Time
				}
				done := make(chan result, 1)
				go func() {
					_, _, err := LoadWithReport(chunkReader{bytes.NewReader(data), 512},
						LoadOptions{Ctx: ctx, Workers: 4, Salvage: salvage})
					done <- result{err, time.Now()}
				}()
				time.Sleep(20 * time.Millisecond)
				cancelled := time.Now()
				cancel(cause)
				res := <-done
				if !errors.Is(res.err, cause) {
					t.Fatalf("cancelled load returned %v, want the cancellation cause", res.err)
				}
				var fe *FormatError
				if errors.As(res.err, &fe) {
					t.Fatalf("cancellation was wrapped in a *FormatError: %v", res.err)
				}
				if lat := res.at.Sub(cancelled); lat > 100*time.Millisecond {
					t.Fatalf("cancelled load returned after %v, want <= 100ms", lat)
				}
			})
		}
	}
}

// TestLoadDeadlinePreservesCause: a deadline expiry mid-load surfaces
// context.DeadlineExceeded (with the configured cause) rather than a
// phantom truncation.
func TestLoadDeadlinePreservesCause(t *testing.T) {
	defer leakcheck.Check(t)()
	data := savedWET(t, "li")
	if err := faultpoint.Arm("wetio.load.read", faultpoint.Spec{Action: faultpoint.ActSleep, Detail: "5ms"}); err != nil {
		t.Fatal(err)
	}
	defer faultpoint.DisarmAll()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	_, _, err := LoadWithReport(chunkReader{bytes.NewReader(data), 512}, LoadOptions{Ctx: ctx})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline-expired load returned %v, want DeadlineExceeded", err)
	}
}

// TestVerifyCancelled: a cancelled verify walk reports the cancellation,
// never a truncated-file verdict.
func TestVerifyCancelled(t *testing.T) {
	data := savedWET(t, "li")
	cause := errors.New("operator abort")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	if _, err := VerifyCtx(ctx, bytes.NewReader(data)); !errors.Is(err, cause) {
		t.Fatalf("cancelled verify returned %v, want the cancellation cause", err)
	}
}

// TestForgedDecodeTypedAcrossFormats arms the stream.decode point after a
// lazy open — standing in for a store forged to pass structural validation
// — and requires every query racing on the first touch to get a typed
// *stream.DecodeError, never a panic. All three formats
// defer decode under Lazy: v2/v3 on whole-trace streams, v4 on per-epoch
// segments.
func TestForgedDecodeTypedAcrossFormats(t *testing.T) {
	fixtures := map[string][]byte{
		"v3": savedWET(t, "li"),
		"v4": savedStreamedWET(t, "li"),
	}
	if data, err := os.ReadFile(filepath.Join("testdata", "li_v2.wet")); err == nil {
		fixtures["v2"] = data
	}
	for name, data := range fixtures {
		t.Run(name, func(t *testing.T) {
			w, _, err := LoadWithReport(bytes.NewReader(data), LoadOptions{Lazy: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := faultpoint.Arm("stream.decode", faultpoint.Spec{Action: faultpoint.ActErr, Detail: "forged store"}); err != nil {
				t.Fatal(err)
			}
			defer faultpoint.DisarmAll()

			var deferred []stream.Stream
			addLazy := func(s stream.Stream) {
				if s != nil && !stream.Materialized(s) {
					deferred = append(deferred, s)
				}
			}
			for _, n := range w.Nodes {
				addLazy(n.TSS)
				for _, sg := range n.TSSegs {
					addLazy(sg.S)
				}
			}
			if len(deferred) == 0 {
				t.Fatalf("%s lazy open produced no deferred streams to forge", name)
			}

			// Concurrent first touch: every racing query must return the
			// same typed verdict, no panics, no partial materialization.
			var wg sync.WaitGroup
			errs := make([]error, 8)
			for g := range errs {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					_, errs[g] = query.ExtractCFCtx(context.Background(), w, core.Tier2, g%2 == 0, nil)
				}(g)
			}
			wg.Wait()
			for g, err := range errs {
				var de *stream.DecodeError
				if !errors.As(err, &de) {
					t.Fatalf("goroutine %d: forged decode surfaced as %v, want *stream.DecodeError", g, err)
				}
				if de.Stream == "" {
					t.Fatalf("goroutine %d: DecodeError does not name the stream", g)
				}
			}
			// Direct stream API: Force returns the same typed error
			// instead of panicking.
			if err := stream.Force(deferred[0]); !errors.As(err, new(*stream.DecodeError)) {
				t.Fatalf("Force returned %v, want *stream.DecodeError", err)
			}
		})
	}
}
