package core_test

// External test package: pulls in internal/wetio (which imports core) to
// assert that parallel freezing is bit-identical to serial freezing all the
// way down to the serialized file bytes.

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"wet/internal/core"
	"wet/internal/interp"
	"wet/internal/progen"
	"wet/internal/wetio"
	"wet/internal/workload"
)

// genWET builds the WET of a random (but seed-deterministic) program.
func genWET(t testing.TB, seed int64) *core.WET {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	prog, in, err := progen.Gen(rng, progen.DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	st, err := interp.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := core.Build(st, interp.Options{Inputs: in})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// workloadWET builds the WET of one synthetic benchmark at scale 1.
func workloadWET(t testing.TB, name string) *core.WET {
	t.Helper()
	wl, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, in := wl.Build(1)
	st, err := interp.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := core.Build(st, interp.Options{Inputs: in})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// freeze is FreezeErr for tests that expect it to succeed.
func freeze(t testing.TB, w *core.WET, opts core.FreezeOptions) *core.SizeReport {
	t.Helper()
	rep, err := w.FreezeErr(opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func saveBytes(t *testing.T, w *core.WET) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := wetio.Save(&buf, w); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFreezeParallelDeterminism freezes the same deterministic build with
// Workers=1 and Workers=8 and requires identical SizeReport fields,
// identical Methods census, and identical wetio-serialized bytes.
func TestFreezeParallelDeterminism(t *testing.T) {
	builds := []struct {
		name  string
		build func(t testing.TB) *core.WET
	}{
		{"progen-1", func(t testing.TB) *core.WET { return genWET(t, 1) }},
		{"progen-2", func(t testing.TB) *core.WET { return genWET(t, 2) }},
		{"li", func(t testing.TB) *core.WET { return workloadWET(t, "li") }},
		{"gzip", func(t testing.TB) *core.WET { return workloadWET(t, "gzip") }},
	}
	for _, tc := range builds {
		t.Run(tc.name, func(t *testing.T) {
			serial := tc.build(t)
			repSerial := freeze(t, serial, core.FreezeOptions{Workers: 1})
			parallel := tc.build(t)
			repParallel := freeze(t, parallel, core.FreezeOptions{Workers: 8})
			if !reflect.DeepEqual(repSerial, repParallel) {
				t.Fatalf("reports differ:\nserial:   %+v\nparallel: %+v", repSerial, repParallel)
			}
			if !reflect.DeepEqual(repSerial.Methods, repParallel.Methods) {
				t.Fatalf("method census differs: %v vs %v", repSerial.Methods, repParallel.Methods)
			}
			b1, b8 := saveBytes(t, serial), saveBytes(t, parallel)
			if !bytes.Equal(b1, b8) {
				t.Fatalf("serialized WETs differ: %d vs %d bytes", len(b1), len(b8))
			}
		})
	}
}

// TestFreezeParallelDeterminismAblations covers the ablation freeze path,
// whose job extraction differs from the default one.
func TestFreezeParallelDeterminismAblations(t *testing.T) {
	for _, opts := range []core.FreezeOptions{
		{AggressiveEdges: true},
	} {
		optsSerial, optsParallel := opts, opts
		optsSerial.Workers, optsParallel.Workers = 1, 8
		repSerial := freeze(t, genWET(t, 3), optsSerial)
		repParallel := freeze(t, genWET(t, 3), optsParallel)
		if !reflect.DeepEqual(repSerial, repParallel) {
			t.Fatalf("%+v: reports differ:\nserial:   %+v\nparallel: %+v", opts, repSerial, repParallel)
		}
	}
}

// TestFreezeWorkerPoolStress exercises predictor-table pool reuse: several
// consecutive freezes on one goroutine, then independent WETs frozen
// concurrently. Run under -race (CI does) to check the worker pool.
func TestFreezeWorkerPoolStress(t *testing.T) {
	// Consecutive freezes reuse pooled tables across Freeze calls.
	for seed := int64(10); seed < 14; seed++ {
		w := genWET(t, seed)
		rep := freeze(t, w, core.FreezeOptions{Workers: 4})
		if rep.T2Total() == 0 {
			t.Fatalf("seed %d: empty tier-2 report", seed)
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	// Independent WETs frozen at the same time share the global pools.
	wets := make([]*core.WET, 4)
	for i := range wets {
		wets[i] = genWET(t, int64(20+i))
	}
	var wg sync.WaitGroup
	for _, w := range wets {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := w.FreezeErr(core.FreezeOptions{Workers: 2}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i, w := range wets {
		want := freeze(t, genWET(t, int64(20+i)), core.FreezeOptions{Workers: 1})
		if !reflect.DeepEqual(w.Report(), want) {
			t.Fatalf("wet %d: concurrent freeze report differs from serial", i)
		}
	}
}
