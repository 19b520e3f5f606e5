package query

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"wet/internal/core"
	"wet/internal/interp"
	"wet/internal/progen"
)

func TestBatchCoversAllJobs(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		const n = 57
		var done [n]atomic.Int32
		if err := BatchCtx(context.Background(), workers, n, func(i int) error { done[i].Add(1); return nil }); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range done {
			if got := done[i].Load(); got != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, got)
			}
		}
	}
	if err := BatchCtx(context.Background(), 4, 0, func(i int) error { t.Error("job invoked for n=0"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// sliceSummary runs a deterministic mixed query workload serially and
// returns a comparable digest: used as the golden for the parallel run.
func querySummary(w *core.WET, tier core.Tier, kind int, crit Instance) string {
	switch kind % 4 {
	case 0:
		res, err := BackwardSlice(w, tier, crit, 0)
		if err != nil {
			return "err:" + err.Error()
		}
		return fmt.Sprintf("bslice:%d:%d:%v", len(res.Instances), res.Edges, res.Instances[len(res.Instances)-1])
	case 1:
		res, err := ForwardSlice(w, tier, crit, 0)
		if err != nil {
			return "err:" + err.Error()
		}
		return fmt.Sprintf("fslice:%d:%d", len(res.Instances), res.Edges)
	case 2:
		invs, err := ValueInvariance(w, tier, 2)
		if err != nil {
			return "err:" + err.Error()
		}
		var sb strings.Builder
		for _, inv := range invs {
			fmt.Fprintf(&sb, "%d/%d/%d;", inv.StmtID, inv.Execs, inv.Uniques)
		}
		return "inv:" + sb.String()
	default:
		sps, err := StrideProfiles(w, tier, 2)
		if err != nil {
			return "err:" + err.Error()
		}
		var sb strings.Builder
		for _, sp := range sps {
			fmt.Fprintf(&sb, "%d/%d/%s/%d;", sp.StmtID, sp.Accesses, sp.Pattern, sp.Stride)
		}
		return "stride:" + sb.String()
	}
}

// TestParallelMixedQueries is the access layer's concurrency contract under
// -race: many goroutines issue slices and profiles, at both tiers, against
// ONE shared frozen WET with no synchronization of their own, and every
// result must match the serial golden.
func TestParallelMixedQueries(t *testing.T) {
	w, _ := buildWET(t, mixedProgram(t), nil)

	// Criteria: one instance per node (spread over ordinals).
	var crits []Instance
	for _, n := range w.Nodes {
		crits = append(crits, Instance{Node: n.ID, Pos: len(n.Stmts) - 1, Ord: n.Execs - 1})
		crits = append(crits, Instance{Node: n.ID, Pos: 0, Ord: 0})
	}

	// 2 tiers x 4 query kinds x criteria: well over the 8-concurrent-query
	// floor; workers=8 keeps at least 8 in flight.
	type job struct {
		tier core.Tier
		kind int
		crit Instance
	}
	var jobs []job
	for _, tier := range []core.Tier{core.Tier1, core.Tier2} {
		for kind := 0; kind < 4; kind++ {
			for _, crit := range crits {
				jobs = append(jobs, job{tier, kind, crit})
			}
		}
	}
	want := make([]string, len(jobs))
	for i, j := range jobs {
		want[i] = querySummary(w, j.tier, j.kind, j.crit)
	}
	got := make([]string, len(jobs))
	err := BatchCtx(context.Background(), 8, len(jobs), func(i int) error {
		got[i] = querySummary(w, jobs[i].tier, jobs[i].kind, jobs[i].crit)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if got[i] != want[i] {
			t.Fatalf("job %d (%+v): parallel result %q, serial %q", i, jobs[i], got[i], want[i])
		}
	}

	// Concurrent whole-trace walks (walkers own private cursors).
	wantCF := make([]uint64, 2)
	wantCF[0] = extractCF(t, w, core.Tier1, true, nil)
	wantCF[1] = extractCF(t, w, core.Tier2, false, nil)
	gotCF := make([]uint64, 16)
	err = BatchCtx(context.Background(), 8, len(gotCF), func(i int) (err error) {
		if i%2 == 0 {
			gotCF[i], err = ExtractCFCtx(context.Background(), w, core.Tier1, true, -1, nil)
		} else {
			gotCF[i], err = ExtractCFCtx(context.Background(), w, core.Tier2, false, -1, nil)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range gotCF {
		if g != wantCF[i%2] {
			t.Fatalf("concurrent ExtractCFCtx %d = %d, want %d", i, g, wantCF[i%2])
		}
	}
}

// TestCrossTierEquivalenceRandom drives every query family over randomized
// generated programs and demands identical answers from tier-1 arrays and
// tier-2 compressed streams.
func TestCrossTierEquivalenceRandom(t *testing.T) {
	opts := progen.DefaultOpts()
	opts.MaxStmts = 25
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(9000 + trial)))
		p, in, err := progen.Gen(rng, opts)
		if err != nil {
			t.Fatalf("trial %d: Gen: %v", trial, err)
		}
		st, err := interp.Analyze(p)
		if err != nil {
			t.Fatalf("trial %d: Analyze: %v", trial, err)
		}
		w, _, err := core.Build(st, interp.Options{Inputs: in, MaxSteps: 1 << 20})
		if err != nil {
			t.Fatalf("trial %d: Build: %v", trial, err)
		}
		if _, err := w.FreezeErr(core.FreezeOptions{}); err != nil {
			t.Fatal(err)
		}

		var cf1, cf2 []int
		extractCF(t, w, core.Tier1, true, func(id int) { cf1 = append(cf1, id) })
		extractCF(t, w, core.Tier2, true, func(id int) { cf2 = append(cf2, id) })
		if !reflect.DeepEqual(cf1, cf2) {
			t.Fatalf("trial %d: CF traces differ (%d vs %d stmts)", trial, len(cf1), len(cf2))
		}

		type keyed struct {
			ID int
			S  Sample
		}
		var lv1, lv2, at1, at2 []keyed
		if _, err := LoadValueTraces(w, core.Tier1, func(id int, s Sample) { lv1 = append(lv1, keyed{id, s}) }); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if _, err := LoadValueTraces(w, core.Tier2, func(id int, s Sample) { lv2 = append(lv2, keyed{id, s}) }); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(lv1, lv2) {
			t.Fatalf("trial %d: load value traces differ", trial)
		}
		if _, err := AddressTraces(w, core.Tier1, func(id int, s Sample) { at1 = append(at1, keyed{id, s}) }); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if _, err := AddressTraces(w, core.Tier2, func(id int, s Sample) { at2 = append(at2, keyed{id, s}) }); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(at1, at2) {
			t.Fatalf("trial %d: address traces differ", trial)
		}

		// Slices from randomized criteria must agree instance for instance.
		for k := 0; k < 8; k++ {
			n := w.Nodes[rng.Intn(len(w.Nodes))]
			crit := Instance{Node: n.ID, Pos: rng.Intn(len(n.Stmts)), Ord: rng.Intn(n.Execs)}
			b1, err1 := BackwardSlice(w, core.Tier1, crit, 0)
			b2, err2 := BackwardSlice(w, core.Tier2, crit, 0)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("trial %d: slice errors diverge: %v vs %v", trial, err1, err2)
			}
			if err1 == nil && !reflect.DeepEqual(b1, b2) {
				t.Fatalf("trial %d: backward slices of %+v differ: %d vs %d instances",
					trial, crit, len(b1.Instances), len(b2.Instances))
			}
			f1, err1 := ForwardSlice(w, core.Tier1, crit, 200)
			f2, err2 := ForwardSlice(w, core.Tier2, crit, 200)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("trial %d: forward slice errors diverge: %v vs %v", trial, err1, err2)
			}
			if err1 == nil && !reflect.DeepEqual(f1, f2) {
				t.Fatalf("trial %d: forward slices of %+v differ", trial, crit)
			}
		}

		inv1, err := ValueInvariance(w, core.Tier1, 2)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		inv2, err := ValueInvariance(w, core.Tier2, 2)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(inv1, inv2) {
			t.Fatalf("trial %d: invariance profiles differ", trial)
		}
		sp1, err := StrideProfiles(w, core.Tier1, 2)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sp2, err := StrideProfiles(w, core.Tier2, 2)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(sp1, sp2) {
			t.Fatalf("trial %d: stride profiles differ", trial)
		}
	}
}
