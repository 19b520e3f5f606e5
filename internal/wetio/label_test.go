package wetio

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"wet/internal/core"
	"wet/internal/interp"
	"wet/internal/ir"
	"wet/internal/query"
	"wet/internal/workload"
)

// damagedLi builds li at tier 1, lets damage rewrite one label, then freezes
// and saves it: a container whose checksums all hold but whose label points
// past the end of the sequence it indexes.
func damagedLi(t *testing.T, damage func(w *core.WET) bool) []byte {
	t.Helper()
	wl, err := workload.ByName("li")
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
	if !damage(w) {
		t.Fatal("found nothing to damage")
	}
	if _, err := w.FreezeErr(core.FreezeOptions{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, w); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLabelsPastTheirSequenceRefused: a dependence label naming an execution
// its producer never ran, and a pattern entry past its unique-value table,
// load (Load does not validate), and the sample queries reading them refuse
// with an error instead of panicking, on eager and lazy opens alike.
func TestLabelsPastTheirSequenceRefused(t *testing.T) {
	files := map[string][]byte{
		// One source ordinal of a labelled DD edge on a load's address operand.
		"address label": damagedLi(t, func(w *core.WET) bool {
			for _, e := range w.Edges {
				dst := w.Nodes[e.DstNode].Stmts[e.DstPos]
				if e.Kind == core.DD && e.OpIdx == 0 && dst.Op == ir.OpLoad && dst.A.IsReg && len(e.SrcOrd) > 0 {
					e.SrcOrd[len(e.SrcOrd)/2] = uint32(w.Nodes[e.SrcNode].Execs + 5000)
					return true
				}
			}
			return false
		}),
		// One pattern entry of a group holding a load whose values repeat.
		"pattern entry": damagedLi(t, func(w *core.WET) bool {
			for _, n := range w.Nodes {
				for pos, s := range n.Stmts {
					g := n.Groups[n.GroupOf[pos]]
					if mi := g.ValMemberIndex(pos); s.Op == ir.OpLoad && mi >= 0 && len(g.UVals[mi]) < n.Execs {
						g.Pattern[len(g.Pattern)/2] = uint32(len(g.UVals[mi]) + 7)
						return true
					}
				}
			}
			return false
		}),
	}
	queries := map[string]func(w *core.WET) error{
		"AddressTrace": func(w *core.WET) (err error) {
			for _, st := range w.Prog.Stmts {
				if st.Op == ir.OpLoad {
					if _, err = query.AddressTraceCtx(context.Background(), w, core.Tier2, st.ID, -1, nil); err != nil {
						return err
					}
				}
			}
			return nil
		},
		"AddressTraces": func(w *core.WET) error {
			_, err := query.AddressTraces(w, core.Tier2, nil)
			return err
		},
		"ValueTrace": func(w *core.WET) (err error) {
			for _, st := range w.Prog.Stmts {
				if st.Op == ir.OpLoad {
					if _, err = query.ValueTraceCtx(context.Background(), w, core.Tier2, st.ID, -1, nil); err != nil {
						return err
					}
				}
			}
			return nil
		},
		"LoadValueTraces": func(w *core.WET) error {
			_, err := query.LoadValueTraces(w, core.Tier2, nil)
			return err
		},
	}
	// The queries that read the damaged label.
	reads := map[string][]string{
		"address label": {"AddressTrace", "AddressTraces"},
		"pattern entry": {"ValueTrace", "LoadValueTraces"},
	}
	for file, data := range files {
		for _, lazy := range []bool{false, true} {
			w, err := Load(bytes.NewReader(data), LoadOptions{Lazy: lazy})
			if err != nil {
				t.Fatalf("%s (lazy=%v): Load: %v", file, lazy, err)
			}
			for name, run := range queries {
				err := func() (err error) {
					defer func() {
						if r := recover(); r != nil {
							err = fmt.Errorf("panic: %v", r)
							t.Errorf("%s (lazy=%v): %s panicked: %v", file, lazy, name, r)
						}
					}()
					return run(w)
				}()
				t.Logf("%s (lazy=%v): %s: %v", file, lazy, name, err)
				for _, want := range reads[file] {
					if want == name && err == nil {
						t.Errorf("%s (lazy=%v): %s answered without an error", file, lazy, name)
					}
				}
			}
		}
	}
}
