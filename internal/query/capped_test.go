package query

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"wet/internal/core"
	"wet/internal/ir"
	"wet/internal/workload"
)

// TestCappedTracesMatchUncapped: a capped value, address or control-flow
// trace returns the uncapped trace's count, taken from execution and label
// counts, and emits exactly the uncapped trace's first cap elements — for
// every load and store of the nine workloads, single-epoch and in epochs of
// 256 timestamps, at both tiers of the in-memory build and reopened eager
// and lazy. So does a capped control-flow window, counting its statements
// past the cap node by node.
func TestCappedTracesMatchUncapped(t *testing.T) {
	type sampleTrace func(context.Context, *core.WET, core.Tier, int, int, func(Sample)) (uint64, error)
	kinds := []struct {
		name  string
		trace sampleTrace
	}{{"value", ValueTraceCtx}, {"address", AddressTraceCtx}}
	bg := context.Background()
	caps := []int{0, 1, 64}
	for _, wl := range workload.All() {
		p, in := wl.Build(1)
		for _, epochTS := range []uint32{0, 1 << 8} {
			views := sliceViews(t, p, in, epochTS)
			if epochTS != 0 {
				views = views[2:] // the single-epoch build is the same at every epochTS
			}
			for _, v := range views {
				name := fmt.Sprintf("%s/epoch_ts=%d/%s", wl.Name, epochTS, v.name)
				for _, st := range p.Stmts {
					if st.Op != ir.OpLoad && st.Op != ir.OpStore {
						continue
					}
					for _, k := range kinds {
						if k.name == "value" && st.Op != ir.OpLoad {
							continue
						}
						var all []Sample
						n, err := k.trace(bg, v.w, v.tier, st.ID, -1, func(s Sample) { all = append(all, s) })
						if err != nil || n != uint64(len(all)) {
							t.Fatalf("%s: uncapped %s trace of %s: %d samples, count %d, %v", name, k.name, st, len(all), n, err)
						}
						for _, c := range caps {
							var got []Sample
							m, err := k.trace(bg, v.w, v.tier, st.ID, c, func(s Sample) { got = append(got, s) })
							if err != nil || m != n || !slices.Equal(got, all[:min(c, len(all))]) {
								t.Fatalf("%s: %s trace of %s capped at %d: count %d (%v), %d samples; uncapped %d",
									name, k.name, st, c, m, err, len(got), n)
							}
						}
					}
				}
				for k := uint32(1); k <= 3; k++ {
					from := v.w.Time / 4 * k
					all := []int{}
					n, err := ExtractCFRangeCtx(bg, v.w, v.tier, from, from+255, -1, func(id int) { all = append(all, id) })
					if err != nil || n != uint64(len(all)) {
						t.Fatalf("%s: uncapped cf window at %d: %d ids, count %d, %v", name, from, len(all), n, err)
					}
					for _, c := range caps {
						got := []int{}
						m, err := ExtractCFRangeCtx(bg, v.w, v.tier, from, from+255, c, func(id int) { got = append(got, id) })
						if err != nil || m != n || !slices.Equal(got, all[:min(c, len(all))]) {
							t.Fatalf("%s: cf window at %d capped at %d: count %d (%v), %d ids; uncapped %d",
								name, from, c, m, err, len(got), n)
						}
					}
				}
				for _, forward := range []bool{true, false} {
					all := []int{}
					n := extractCF(t, v.w, v.tier, forward, func(id int) { all = append(all, id) })
					for _, c := range caps {
						got := []int{}
						m, err := ExtractCFCtx(bg, v.w, v.tier, forward, c, func(id int) { got = append(got, id) })
						if err != nil || m != n || !slices.Equal(got, all[:min(c, len(all))]) {
							t.Fatalf("%s: cf forward=%v capped at %d: count %d (%v), %d ids; uncapped %d",
								name, forward, c, m, err, len(got), n)
						}
					}
				}
			}
		}
	}
}
