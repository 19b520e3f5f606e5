package wetio

import (
	"sort"

	"wet/internal/core"
	"wet/internal/wire"
)

func saveReport(w *wire.Enc, r *core.SizeReport) {
	for _, v := range [...]uint64{r.OrigTS, r.OrigVals, r.OrigEdges,
		r.T1TS, r.T1Vals, r.T1Edges, r.T2TS, r.T2Vals, r.T2Edges} {
		w.U64(v)
	}
	w.I64(int64(r.InferableEdges))
	w.I64(int64(r.SharedEdges))
	w.I64(int64(r.OwnedEdges))
	w.U32(uint32(len(r.Methods)))
	// Sorted order: two saves of equal WETs must produce identical bytes
	// (map iteration order would otherwise leak into the file).
	names := make([]string, 0, len(r.Methods))
	for name := range r.Methods {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		putString(w, name)
		w.I64(int64(r.Methods[name]))
	}
}

func loadReport(d *wire.Dec) (*core.SizeReport, error) {
	r := &core.SizeReport{Methods: map[string]int{}}
	for _, f := range []*uint64{&r.OrigTS, &r.OrigVals, &r.OrigEdges,
		&r.T1TS, &r.T1Vals, &r.T1Edges, &r.T2TS, &r.T2Vals, &r.T2Edges} {
		*f = d.U64()
	}
	r.InferableEdges, r.SharedEdges, r.OwnedEdges = int(d.I64()), int(d.I64()), int(d.I64())
	for n := d.Count(4 + 8); n > 0; n-- {
		name := readString(d)
		r.Methods[name] = int(d.I64())
	}
	return r, d.Err()
}
