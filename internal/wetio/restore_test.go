package wetio

// LoadOptions.RestoreTier1 is one post-pass (core.MaterializeTier1Ctx) on
// every container version and on the salvage path. These tests hold it to
// that: the same rehydrated tier 1 whatever the version, worker count and
// load mode, and cancellable on the salvage path too. (The typed error of a
// forged lazily decoded stream is TestForgedDecodeTypedAcrossFormats'.)

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"wet/internal/core"
	"wet/internal/faultpoint"
	"wet/internal/interp"
	"wet/internal/leakcheck"
	"wet/internal/query"
	"wet/internal/stream"
	"wet/internal/workload"
)

// tierDigest fingerprints what queries observe at one tier: control flow in
// both directions, every load value, every address, and a backward slice
// from the last executed path. A refusal (budget-dropped streams) is folded
// in as its error text, so two tiers agree only if they also refuse alike.
func tierDigest(w *core.WET, tier core.Tier) string {
	h := fnv.New64a()
	emit := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			for i := range b {
				b[i] = byte(v >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	part := func(name string, n uint64, err error) string {
		s := fmt.Sprintf("%s=%d/%016x/%v ", name, n, h.Sum64(), err)
		h.Reset()
		return s
	}
	ctx := context.Background()
	var out string
	n, err := query.ExtractCFCtx(ctx, w, tier, true, func(id int) { emit(uint64(id)) })
	out += part("cf_fwd", n, err)
	n, err = query.ExtractCFCtx(ctx, w, tier, false, func(id int) { emit(uint64(id)) })
	out += part("cf_bwd", n, err)
	n, err = query.LoadValueTraces(w, tier, func(id int, s query.Sample) { emit(uint64(id), uint64(s.TS), uint64(s.Value)) })
	out += part("values", n, err)
	n, err = query.AddressTraces(w, tier, func(id int, s query.Sample) { emit(uint64(id), uint64(s.TS), uint64(s.Value)) })
	out += part("addrs", n, err)
	crit := query.Instance{Node: w.LastNode, Pos: 0, Ord: w.Nodes[w.LastNode].Execs - 1}
	sl, err := query.BackwardSlice(w, tier, crit, 0)
	if err == nil {
		for _, in := range sl.Instances {
			emit(uint64(in.Node), uint64(in.Pos), uint64(in.Ord))
		}
		n = uint64(sl.Edges)
	}
	return out + part("bslice", n, err)
}

// restoreFixture is one container of the RestoreTier1 matrix. fresh is a
// build of the same run that still holds its own tier 1 (nil when the
// container is budget-degraded: nothing undegraded compares).
type restoreFixture struct {
	name  string
	data  []byte
	fresh *core.WET
}

func restoreFixtures(t *testing.T) []restoreFixture {
	t.Helper()
	save := func(w *core.WET) []byte {
		var buf bytes.Buffer
		if err := Save(&buf, w); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	build := func(prog func() (*interp.Static, interp.Options), fopts core.FreezeOptions) *core.WET {
		st, ropts := prog()
		w, _, _, err := core.BuildStreaming(st, ropts, fopts)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	liAt := func(scale int) func() (*interp.Static, interp.Options) {
		return func() (*interp.Static, interp.Options) {
			wl, err := workload.ByName("li")
			if err != nil {
				t.Fatal(err)
			}
			prog, in := wl.Build(scale)
			st, err := interp.Analyze(prog)
			if err != nil {
				t.Fatal(err)
			}
			return st, interp.Options{Inputs: in}
		}
	}
	li := liAt(1)
	liConc := func() (*interp.Static, interp.Options) {
		wl, err := workload.ConcByName("li-conc-racy")
		if err != nil {
			t.Fatal(err)
		}
		prog, in := wl.Build(1)
		st, err := interp.Analyze(prog)
		if err != nil {
			t.Fatal(err)
		}
		return st, interp.Options{Inputs: in, Seed: 1}
	}

	freshLi := build(li, core.FreezeOptions{})
	liV3 := save(freshLi)
	// The committed fixtures are li at scale 1 (v2) and scale 3 (v3).
	var fx []restoreFixture
	for name, fresh := range map[string]*core.WET{"li_v2.wet": freshLi, "li_v3.wet": build(liAt(3), core.FreezeOptions{})} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		fx = append(fx, restoreFixture{name, data, fresh})
	}
	fx = append(fx,
		restoreFixture{"fresh_v3", liV3, freshLi},
		restoreFixture{"fresh_v4", save(build(li, core.FreezeOptions{EpochTS: 256})), freshLi},
		restoreFixture{"conc_v4", save(build(liConc, core.FreezeOptions{EpochTS: 256})), build(liConc, core.FreezeOptions{})},
	)
	for _, epochTS := range []uint32{0, 256} {
		floor := len(save(build(li, core.FreezeOptions{EpochTS: epochTS})))
		w := build(li, core.FreezeOptions{EpochTS: epochTS, ByteBudget: uint64(floor) * 7 / 10})
		if !w.Fidelity.Degraded() {
			t.Fatalf("budget of 70%% of the floor degraded nothing at EpochTS=%d", epochTS)
		}
		fx = append(fx, restoreFixture{fmt.Sprintf("budget_epoch%d", epochTS), save(w), nil})
	}
	return fx
}

// TestRestoreTier1Matrix: whatever the container version, worker count and
// load mode, the rehydrated tier 1 answers exactly as tier 2 does and as the
// tier 1 of a fresh build of the same run.
func TestRestoreTier1Matrix(t *testing.T) {
	for _, fx := range restoreFixtures(t) {
		var want string
		if fx.fresh != nil {
			want = tierDigest(fx.fresh, core.Tier1)
		}
		for _, workers := range []int{1, 4} {
			for _, salvage := range []bool{false, true} {
				what := fmt.Sprintf("%s workers=%d salvage=%v", fx.name, workers, salvage)
				w, rep, err := LoadWithReport(bytes.NewReader(fx.data),
					LoadOptions{RestoreTier1: true, Workers: workers, Salvage: salvage})
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if !rep.Clean() {
					t.Fatalf("%s: intact file did not load cleanly: %s", what, rep)
				}
				for _, n := range w.Nodes {
					if len(n.TS) != n.Execs {
						t.Fatalf("%s: node %d holds %d tier-1 timestamps for %d executions", what, n.ID, len(n.TS), n.Execs)
					}
				}
				t1, t2 := tierDigest(w, core.Tier1), tierDigest(w, core.Tier2)
				if t1 != t2 {
					t.Errorf("%s: rehydrated tier 1 disagrees with tier 2:\n t1 %s\n t2 %s", what, t1, t2)
				}
				if want != "" && t1 != want {
					t.Errorf("%s: rehydrated tier 1 disagrees with a fresh build's:\n got  %s\n want %s", what, t1, want)
				}
				if w.Conc != nil {
					for i, cs := range w.Conc.Streams() {
						if !slices.Equal(stream.Drain(cs.S), cs.Raw) {
							t.Errorf("%s: concurrency stream %d tier 1 differs from tier 2", what, i)
						}
					}
				}
			}
		}
	}
}

// TestSalvageRestoreTier1Cancellable: the rehydration pass of a salvage load
// honours the context like a strict load's — the cause comes back promptly,
// unwrapped, with no pool goroutine left — on v3 and v4 alike. The stall is
// injected into the materialize jobs only, so the cancel lands there.
func TestSalvageRestoreTier1Cancellable(t *testing.T) {
	for name, data := range map[string][]byte{"v3": savedWET(t, "li"), "v4": savedStreamedWET(t, "li")} {
		t.Run(name, func(t *testing.T) {
			defer leakcheck.Check(t)()
			if err := faultpoint.Arm("core.freeze.job", faultpoint.Spec{Action: faultpoint.ActSleep, Detail: "5ms"}); err != nil {
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
				_, _, err := LoadWithReport(bytes.NewReader(data),
					LoadOptions{Ctx: ctx, Salvage: true, RestoreTier1: true, Workers: 4})
				done <- result{err, time.Now()}
			}()
			time.Sleep(40 * time.Millisecond)
			cancelled := time.Now()
			cancel(cause)
			res := <-done
			if !errors.Is(res.err, cause) {
				t.Fatalf("cancelled salvage load returned %v, want the cancellation cause", res.err)
			}
			if errors.As(res.err, new(*FormatError)) {
				t.Fatalf("cancellation was wrapped in a *FormatError: %v", res.err)
			}
			if lat := res.at.Sub(cancelled); lat > 100*time.Millisecond {
				t.Fatalf("cancelled salvage load returned after %v, want <= 100ms", lat)
			}
		})
	}
}
