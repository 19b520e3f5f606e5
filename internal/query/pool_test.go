package query

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"wet/internal/core"
	"wet/internal/faultpoint"
	"wet/internal/ir"
	"wet/internal/workload"
)

// TestReleaseDropsCursors: after every kind of pooled query — run to the
// end, capped, cancelled mid-merge, or failing a deferred decode, forward
// walks included — every qctx the pool made holds buffers only: no window,
// reader or occurrence source keeps a cursor, a sequence or the WET, no
// share keeps a walk's edge readers or position bits, every slot is empty
// and every page zeroed. Queries run over li's lazily reopened 256-timestamp
// epochs (evictable segments) and its single-epoch build.
func TestReleaseDropsCursors(t *testing.T) {
	made := trackPool(t)
	wl, err := workload.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	p, in := wl.Build(1)
	views := sliceViews(t, p, in, 1<<8)
	bg := context.Background()
	for _, v := range []sliceView{views[0], views[3]} {
		w := v.w
		for i, c := range sliceCriteria(t, w, 4) {
			for _, max := range []int{0, 128} {
				if _, err := BackwardSlice(w, v.tier, c, max); err != nil {
					t.Fatal(err)
				}
				if _, err := ForwardSlice(w, v.tier, c, max); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := DependenceChain(w, v.tier, c, 0, 64); err != nil {
				t.Fatal(err)
			}
			if _, err := Chop(w, v.tier, Instance{Node: c.Node, Ord: max(c.Ord-1, 0)}, c, 64); err != nil {
				t.Fatal(err)
			}
			from := w.Time / 5 * uint32(i+1)
			if _, err := ExtractCFRangeCtx(bg, w, v.tier, from, from+255, 64, func(int) {}); err != nil {
				t.Fatal(err)
			}
			var se *StmtError // a statement that did not run at from is an answer too
			if _, err := InstanceOfTS(w, v.tier, w.Nodes[c.Node].Stmts[c.Pos].ID, from); errors.As(err, &se) {
				t.Fatal(err)
			}
		}
		if _, err := ExtractCFCtx(bg, w, v.tier, false, 64, func(int) {}); err != nil {
			t.Fatal(err)
		}
		load, most := -1, 0
		for _, st := range w.Prog.Stmts {
			if st.Op != ir.OpLoad && st.Op != ir.OpStore {
				continue
			}
			limit := 64
			if st.ID%4 == 0 {
				limit = -1
			}
			if st.Op == ir.OpLoad {
				n, err := ValueTraceCtx(bg, w, v.tier, st.ID, limit, func(Sample) {})
				if err != nil {
					t.Fatal(err)
				}
				if int(n) > most {
					load, most = st.ID, int(n)
				}
			}
			if _, err := AddressTraceCtx(bg, w, v.tier, st.ID, limit, func(Sample) {}); err != nil {
				t.Fatal(err)
			}
		}
		ctx, cancel := context.WithCancel(bg)
		if _, err := ValueTraceCtx(ctx, w, v.tier, load, -1, func(Sample) { cancel() }); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: a value trace cancelled mid-merge returned %v", v.name, err)
		}
		checkReleased(t, v.name, *made)
	}
	// A slice stopped by a failing deferred decode, on a fresh lazy open.
	lazy := sliceViews(t, p, in, 1<<8)[3]
	if err := faultpoint.Arm("stream.decode", faultpoint.Spec{Action: faultpoint.ActErr, After: 3}); err != nil {
		t.Fatal(err)
	}
	_, err = BackwardSlice(lazy.w, lazy.tier, sliceCriteria(t, views[0].w, 1)[0], 0)
	faultpoint.DisarmAll()
	if err == nil {
		t.Fatal("a slice over failing decodes succeeded")
	}
	checkReleased(t, "failed decode", *made)
}

// trackPool empties the pool and makes it record every qctx it makes from
// then on, until the test ends; a pool may drop what it is handed, so
// the record is what a test can count on seeing.
func trackPool(t *testing.T) *[]*qctx {
	newCtx := ctxPool.New
	ctxPool.New = nil
	for ctxPool.Get() != nil {
	}
	made := new([]*qctx)
	ctxPool.New = func() any {
		q := new(qctx)
		*made = append(*made, q)
		return q
	}
	t.Cleanup(func() { ctxPool.New = newCtx })
	return made
}

// checkReleased checks that release left each of made holding buffers
// only. There must be at least one.
func checkReleased(t *testing.T, name string, made []*qctx) {
	t.Helper()
	if len(made) == 0 {
		t.Fatalf("%s: the pool made no qctx", name)
	}
	for _, q := range made {
		checkReleasedCtx(t, name, q)
	}
}

func checkReleasedCtx(t *testing.T, name string, q *qctx) {
	t.Helper()
	fail := func(what string) { t.Fatalf("%s: a released qctx still holds %s", name, what) }
	if q.ctx != nil || q.w != nil || q.err != nil || len(q.vals) != 0 || len(q.srcs) != 0 {
		fail("its query's context, WET, error, readers or sources")
	}
	for _, o := range q.srcs[:cap(q.srcs)] {
		if o.ts != nil {
			fail("an occurrence source's timestamp cursor")
		}
	}
	for _, r := range q.readers {
		if r.st != nil || r.uv != nil || r.ra != nil || r.nuv != 0 || len(r.uvals) != 0 {
			fail("a value reader's statement or unique values")
		}
		windowEmpty(t, name, &r.seq)
	}
	checkTable(t, name, &q.nodes, func(w *core.Window) { windowEmpty(t, name, w) })
	checkTable(t, name, &q.edges, func(p *[2]core.Window) { windowEmpty(t, name, &p[0]); windowEmpty(t, name, &p[1]) })
	s := &q.set
	if s.w != nil || s.used != 0 || s.n != 0 || s.walk {
		fail("instance set members")
	}
	for _, f := range s.nodes[:cap(s.nodes)] {
		if f != nil {
			fail("a node share in the instance set")
		}
	}
	for _, f := range s.shares {
		if len(f.held) != 0 {
			fail("a share's pages")
		}
		if f.in != nil || f.bits != nil {
			fail("a walk's readers or position bits")
		}
		for _, pg := range f.pages[:cap(f.pages)] {
			if pg != nil {
				fail("a page in a share's table")
			}
		}
	}
	for _, free := range s.free {
		for _, pg := range free {
			if pg.any != 0 || !allZero(pg.rows) {
				fail("a free page with members")
			}
		}
	}
	if q.sweep.q != nil || q.sweep.set != nil || q.sweep.res != nil || q.sweep.opts != (SliceOptions{}) {
		fail("its sweep")
	}
}

func allZero(v []uint64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// checkTable checks every slot of t is empty and hands each slab entry to
// empty.
func checkTable[W any](t *testing.T, name string, tab *winTable[W], empty func(*W)) {
	t.Helper()
	if len(tab.ids) != 0 || tab.n != 0 {
		t.Fatalf("%s: a released window table still names %d ids and holds %d windows", name, len(tab.ids), tab.n)
	}
	for id, k := range tab.slot[:cap(tab.slot)] {
		if k != nil {
			t.Fatalf("%s: a released window table's slot %d is set", name, id)
		}
	}
	for _, w := range tab.slab {
		empty(w)
	}
}

// windowEmpty fails unless every field of win but its run buffer is zero:
// no cursor, sequence, segment list or WET.
func windowEmpty(t *testing.T, name string, win *core.Window) {
	t.Helper()
	v := reflect.ValueOf(win).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); f.Name != "v" && !v.Field(i).IsZero() {
			t.Fatalf("%s: a released window still holds its %s", name, f.Name)
		}
	}
	if v.FieldByName("v").Len() != 0 {
		t.Fatalf("%s: a released window's run is not empty", name)
	}
}
