package wetio

// The fidelity section persists the machine-readable account of a
// byte-budgeted freeze (core.FidelityReport). It rides between the report
// section and the first node record, and only in containers that actually
// shed something: a budget at or above the lossless floor writes no
// fidelity section, keeping those files byte-identical to pre-budget
// output. The payload is fixed-width per entry so the planner can project
// its cost exactly and the final achieved-size write cannot change the
// container size:
//
//	budget u64, floor u64, achieved u64
//	tsStride u32, groupsKept u32, edgesKept u32
//	dropped groups: count u32, then per entry node u32, group u32, saved u64
//	dropped edges:  count u32, then per entry edge u32, saved u64
//
// tsStride is always 0: it recorded timestamp widening, a retired rung
// that quantized every node's timestamps, and readers refuse a file that
// sets it (errWidenedTS).
//
// (These widths are mirrored by core's fidSectionBytes / fidGroupEntryBytes
// / fidEdgeEntryBytes projection constants.)

import (
	"errors"
	"fmt"

	"wet/internal/core"
	"wet/internal/wire"
)

// init installs the container-size oracle FreezeOptions.ByteBudget plans
// against: a full Save into a counting writer, so the lossless floor and
// every projected size are exact container bytes, never estimates. core
// cannot import wetio, so the hook is registered from this side.
func init() {
	core.RegisterContainerMeasure(MeasureContainer)
}

// MeasureContainer returns the exact serialized size of the frozen WET: the
// byte count of a full Save into a counting writer. This is the cost oracle
// the byte-budget planner descends its ladder against.
func MeasureContainer(w *core.WET) (uint64, error) {
	var cw countingWriter
	if err := Save(&cw, w); err != nil {
		return 0, err
	}
	return cw.n, nil
}

type countingWriter struct{ n uint64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += uint64(len(p))
	return len(p), nil
}

func saveFidelityPayload(w *wire.Enc, f *core.FidelityReport) {
	w.U64(f.BudgetBytes)
	w.U64(f.FloorBytes)
	w.U64(f.AchievedBytes)
	w.U32(0) // tsStride: the retired timestamp widening
	w.U32(uint32(f.GroupsKept))
	w.U32(uint32(f.EdgesKept))
	w.U32(uint32(len(f.DroppedGroups)))
	for _, d := range f.DroppedGroups {
		w.U32(uint32(d.Node))
		w.U32(uint32(d.Group))
		w.U64(d.SavedBytes)
	}
	w.U32(uint32(len(f.DroppedEdges)))
	for _, d := range f.DroppedEdges {
		w.U32(uint32(d.Edge))
		w.U64(d.SavedBytes)
	}
}

// errWidenedTS refuses a fidelity section whose tsStride is set: the file's
// node records hold timestamps quantized by the retired widening rung, so
// no load, salvage included, may read them as exact.
var errWidenedTS = errors.New("timestamp widening is retired: this file's node timestamps are quantized, not exact")

// parseFidelitySec deserializes the fidelity section. Entries are bounds
// checked against the header counts here; the per-record validation they
// relax happens in the node/edge parsers consulting the returned report.
func parseFidelitySec(s *section, hdr header) (fid *core.FidelityReport, err error) {
	err = guard("fidelity", -1, s.offset, func() error {
		d := wire.NewDec(s.payload)
		f := &core.FidelityReport{BudgetBytes: d.U64(), FloorBytes: d.U64(), AchievedBytes: d.U64()}
		if stride := d.U32(); stride != 0 {
			return fmt.Errorf("tsStride is %d: %w", stride, errWidenedTS)
		}
		f.GroupsKept, f.EdgesKept = int(d.U32()), int(d.U32())
		for n := d.Count(16); n > 0; n-- {
			g := core.DroppedGroup{Node: int(d.U32()), Group: int(d.U32()), SavedBytes: d.U64()}
			if g.Node >= hdr.nNodes {
				return fmt.Errorf("dropped-group entry names node %d of %d", g.Node, hdr.nNodes)
			}
			f.DroppedGroups = append(f.DroppedGroups, g)
		}
		for n := d.Count(12); n > 0; n-- {
			e := core.DroppedEdge{Edge: int(d.U32()), SavedBytes: d.U64()}
			if e.Edge >= hdr.nEdges {
				return fmt.Errorf("dropped-edge entry names edge %d of %d", e.Edge, hdr.nEdges)
			}
			f.DroppedEdges = append(f.DroppedEdges, e)
		}
		if err := done(d); err != nil {
			return err
		}
		fid = f
		return nil
	})
	return fid, err
}

// installFidelity attaches a parsed fidelity report to an assembled WET,
// rederiving the summary fields from the (possibly salvage-filtered) drop
// lists rather than trusting them from the file.
func installFidelity(wet *core.WET, fid *core.FidelityReport) {
	totalGroups := 0
	for _, n := range wet.Nodes {
		totalGroups += len(n.Groups)
	}
	fid.Finish(totalGroups, len(wet.Edges))
	wet.Fidelity = fid
}
