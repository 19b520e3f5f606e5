package query

import (
	"cmp"
	"fmt"
	"slices"

	"wet/internal/core"
)

// StmtDelta compares one static statement's dynamic behaviour across two
// runs of the same program.
type StmtDelta struct {
	StmtID int
	// ExecsA/ExecsB are the statement's dynamic execution counts.
	ExecsA, ExecsB uint64
	// UniqueA/UniqueB count distinct values produced (def-port statements).
	UniqueA, UniqueB int
}

// Diff compares two WETs of the same program (e.g. two inputs): per
// statement execution counts and value diversity, plus the path-level
// control flow difference. It is input-sensitivity mining over the unified
// profile — both WETs answer every per-statement question directly.
type Diff struct {
	// Stmts holds one entry per static statement whose behaviour differs,
	// sorted by descending |ExecsA - ExecsB|.
	Stmts []StmtDelta
	// PathsOnlyA/PathsOnlyB count Ball–Larus paths exercised by exactly one
	// of the runs.
	PathsOnlyA, PathsOnlyB int
	// SharedPaths counts paths exercised by both.
	SharedPaths int
}

// execsOf sums a statement's execution count over its occurrences.
func execsOf(w *core.WET, stmtID int) uint64 {
	var n uint64
	for _, ref := range w.StmtOcc[stmtID] {
		n += uint64(w.Nodes[ref.Node].Execs)
	}
	return n
}

// uniqueValuesOf counts distinct values a def statement produced (0 for
// statements without a def port).
func uniqueValuesOf(w *core.WET, stmtID int) int {
	st := w.Prog.Stmts[stmtID]
	if !st.Op.HasDef() || st.Dest < 0 {
		return 0
	}
	seen := map[uint32]bool{}
	for _, ref := range w.StmtOcc[stmtID] {
		n := w.Nodes[ref.Node]
		g := n.Groups[n.GroupOf[ref.Pos]]
		mi := g.ValMemberIndex(ref.Pos)
		if mi < 0 {
			continue
		}
		for _, v := range g.UVals[mi] {
			seen[v] = true
		}
	}
	return len(seen)
}

// DiffWETs compares two WETs of the same program. Both must be built from
// a program with identical statement numbering (the same *ir.Program or a
// deserialized copy).
func DiffWETs(a, b *core.WET) (*Diff, error) {
	if len(a.Prog.Stmts) != len(b.Prog.Stmts) {
		return nil, fmt.Errorf("query: WETs are from different programs (%d vs %d statements)",
			len(a.Prog.Stmts), len(b.Prog.Stmts))
	}
	for i := range a.Prog.Stmts {
		if a.Prog.Stmts[i].String() != b.Prog.Stmts[i].String() {
			return nil, fmt.Errorf("query: statement %d differs between programs", i)
		}
	}
	d := &Diff{}
	for id := range a.Prog.Stmts {
		sd := StmtDelta{
			StmtID: id,
			ExecsA: execsOf(a, id), ExecsB: execsOf(b, id),
			UniqueA: uniqueValuesOf(a, id), UniqueB: uniqueValuesOf(b, id),
		}
		if sd.ExecsA != sd.ExecsB || sd.UniqueA != sd.UniqueB {
			d.Stmts = append(d.Stmts, sd)
		}
	}
	slices.SortFunc(d.Stmts, func(x, y StmtDelta) int {
		return cmp.Compare(absDiff(y.ExecsA, y.ExecsB), absDiff(x.ExecsA, x.ExecsB))
	})

	pathsA := map[[2]int64]bool{}
	for _, n := range a.Nodes {
		pathsA[[2]int64{int64(n.Fn), n.PathID}] = true
	}
	for _, n := range b.Nodes {
		k := [2]int64{int64(n.Fn), n.PathID}
		if pathsA[k] {
			d.SharedPaths++
			delete(pathsA, k)
		} else {
			d.PathsOnlyB++
		}
	}
	d.PathsOnlyA = len(pathsA)
	return d, nil
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
