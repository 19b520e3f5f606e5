package wetio

// A loaded WET has tier 2 only; the loader is exact when its tier-2 cursors
// answer what a fresh build of the same run answers from its tier-1 arrays,
// whatever the container version, worker count and load mode.

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"wet/internal/core"
	"wet/internal/interp"
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
	n, err := query.ExtractCFCtx(ctx, w, tier, true, -1, func(id int) { emit(uint64(id)) })
	out += part("cf_fwd", n, err)
	n, err = query.ExtractCFCtx(ctx, w, tier, false, -1, func(id int) { emit(uint64(id)) })
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

// matchesFresh checks a loaded WET against a fresh build of the same run:
// queries over the loaded tier-2 cursors digest as the fresh build's over
// its tier-1 arrays (want, from tierDigest), and each concurrency stream
// drains to the fresh build's raw slice.
func matchesFresh(t *testing.T, what string, loaded *core.WET, want string, fresh *core.WET) {
	t.Helper()
	if got := tierDigest(loaded, core.Tier2); got != want {
		t.Errorf("%s: loaded tier 2 disagrees with a fresh build:\n got  %s\n want %s", what, got, want)
	}
	if fresh == nil || fresh.Conc == nil {
		return
	}
	freshConc := fresh.Conc.Streams()
	for i, cs := range loaded.Conc.Streams() {
		if !slices.Equal(drainStream(cs.S), freshConc[i].Raw) {
			t.Errorf("%s: concurrency stream %d differs from a fresh build's", what, i)
		}
	}
}

// loadFixture is one container of the load matrix. fresh is a single-epoch
// build of the same run, which keeps its own tier 1; want is its tier-1
// digest, or, for a budget-degraded container, the tier-2 digest of the
// degraded build that was saved (fresh is then nil).
type loadFixture struct {
	name  string
	data  []byte
	fresh *core.WET
	want  string
}

func loadFixtures(t *testing.T) []loadFixture {
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
	fixture := func(name string, data []byte, fresh *core.WET) loadFixture {
		return loadFixture{name, data, fresh, tierDigest(fresh, core.Tier1)}
	}

	freshLi := build(li, core.FreezeOptions{})
	liV3 := save(freshLi)
	// The committed fixtures are li at scale 1 (v2) and scale 3 (v3).
	var fx []loadFixture
	for name, fresh := range map[string]*core.WET{"li_v2.wet": freshLi, "li_v3.wet": build(liAt(3), core.FreezeOptions{})} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		fx = append(fx, fixture(name, data, fresh))
	}
	fx = append(fx,
		fixture("fresh_v3", liV3, freshLi),
		fixture("fresh_v4", save(build(li, core.FreezeOptions{EpochTS: 256})), freshLi),
		fixture("conc_v4", save(build(liConc, core.FreezeOptions{EpochTS: 256})), build(liConc, core.FreezeOptions{})),
	)
	for _, epochTS := range []uint32{0, 256} {
		floor := len(save(build(li, core.FreezeOptions{EpochTS: epochTS})))
		w := build(li, core.FreezeOptions{EpochTS: epochTS, ByteBudget: uint64(floor) * 7 / 10})
		if !w.Fidelity.Degraded() {
			t.Fatalf("budget of 70%% of the floor degraded nothing at EpochTS=%d", epochTS)
		}
		fx = append(fx, loadFixture{fmt.Sprintf("budget_epoch%d", epochTS), save(w), nil, tierDigest(w, core.Tier2)})
	}
	return fx
}

// TestLoadMatchesFreshTier1: whatever the container version, worker count
// and load mode, a loaded WET keeps no tier-1 labels and its tier 2 answers
// exactly as the tier 1 of a fresh build of the same run.
func TestLoadMatchesFreshTier1(t *testing.T) {
	for _, fx := range loadFixtures(t) {
		for _, workers := range []int{1, 4} {
			for _, salvage := range []bool{false, true} {
				what := fmt.Sprintf("%s workers=%d salvage=%v", fx.name, workers, salvage)
				w, rep, err := LoadWithReport(bytes.NewReader(fx.data),
					LoadOptions{Workers: workers, Salvage: salvage})
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if !rep.Clean() {
					t.Fatalf("%s: intact file did not load cleanly: %s", what, rep)
				}
				for _, n := range w.Nodes {
					if n.TS != nil {
						t.Fatalf("%s: node %d holds tier-1 timestamps", what, n.ID)
					}
				}
				matchesFresh(t, what, w, fx.want, fx.fresh)
			}
		}
	}
}

// drainStream returns all values of s in order.
func drainStream(s stream.Stream) []uint32 {
	out := make([]uint32, s.Len())
	s.NewCursor().NextN(out)
	return out
}
