package wetio

import (
	"fmt"

	"wet/internal/core"
	"wet/internal/interp"
	"wet/internal/wire"
)

// loadV2 reads the unframed v2 format (no section lengths, no checksums)
// from a decoder positioned after the preamble. v2 files predate salvage: a
// damaged byte anywhere desynchronizes the rest of the body, so this loader
// is strict only — but it shares the v3 hardening: counts bounded by the
// bytes present, structural cross checks, and a recover boundary converting
// decoder panics into *FormatError.
func loadV2(d *wire.Dec, opts LoadOptions) (*core.WET, error) {
	var wet *core.WET
	var rep *core.SizeReport
	err := guard("v2 body", -1, 8, func() (err error) {
		wet, rep, err = loadV2Body(d, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	return wet, finishLoad(wet, rep, opts)
}

func loadV2Body(d *wire.Dec, opts LoadOptions) (*core.WET, *core.SizeReport, error) {
	prog, err := loadProgram(d)
	if err != nil {
		return nil, nil, err
	}
	st, err := interp.Analyze(prog)
	if err != nil {
		return nil, nil, fmt.Errorf("reanalyze: %w", err)
	}
	wet := &core.WET{Prog: prog, Static: st}
	for _, f := range rawHeaderFields(&wet.Raw) {
		*f = d.U64()
	}
	rep, err := loadReport(d)
	if err != nil {
		return nil, nil, err
	}
	wet.Time = d.U32()
	wet.FirstNode, wet.LastNode = int(d.I32()), int(d.I32())

	// The node and edge records are v3's, back to back behind a count, with
	// no frame around them; the loop index names them as segment owners.
	nNodes := d.Count(1)
	for i := 0; i < nNodes; i++ {
		n, err := readNode(d, wet, i, nNodes, opts.ownedBy("node", i))
		if err != nil {
			return nil, nil, fmt.Errorf("node %d: %w", i, err)
		}
		wet.Nodes = append(wet.Nodes, n)
	}
	nEdges := d.Count(1)
	for i := 0; i < nEdges; i++ {
		e := new(core.Edge)
		if err := readEdge(d, wet, e, i, nEdges, opts.ownedBy("edge", i)); err != nil {
			return nil, nil, fmt.Errorf("edge %d: %w", i, err)
		}
		wet.Edges = append(wet.Edges, e)
	}
	if err := d.Err(); err != nil {
		return nil, nil, err
	}
	if wet.FirstNode < 0 || wet.FirstNode >= len(wet.Nodes) ||
		wet.LastNode < 0 || wet.LastNode >= len(wet.Nodes) {
		return nil, nil, fmt.Errorf("first/last node out of range")
	}
	return wet, rep, nil
}
