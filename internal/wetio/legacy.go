package wetio

import (
	"fmt"
	"io"

	"wet/internal/core"
	"wet/internal/interp"
)

// loadV2 reads the unframed v2 format (no section lengths, no checksums).
// v2 files predate salvage: a damaged byte anywhere desynchronizes the rest
// of the stream, so this loader is strict only — but it shares the v3
// hardening: allocations bounded by bytes present, structural cross checks,
// and a recover boundary converting decoder panics into *FormatError. The
// preamble (magic, version) has been consumed by the caller.
func loadV2(br io.Reader, opts LoadOptions) (*core.WET, error) {
	var wet *core.WET
	var rep *core.SizeReport
	err := guard("v2 body", 8, func() (err error) {
		wet, rep, err = loadV2Body(br, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	return wet, finishLoad(wet, rep, opts)
}

func loadV2Body(br io.Reader, opts LoadOptions) (*core.WET, *core.SizeReport, error) {
	prog, err := loadProgram(br)
	if err != nil {
		return nil, nil, err
	}
	st, err := interp.Analyze(prog)
	if err != nil {
		return nil, nil, fmt.Errorf("reanalyze: %w", err)
	}
	wet := &core.WET{Prog: prog, Static: st}
	if err := readVals(br, rawHeaderFields(&wet.Raw)...); err != nil {
		return nil, nil, err
	}
	rep, err := loadReport(br)
	if err != nil {
		return nil, nil, err
	}
	var first, last int32
	if err := readVals(br, &wet.Time, &first, &last); err != nil {
		return nil, nil, err
	}
	wet.FirstNode, wet.LastNode = int(first), int(last)

	// The node and edge records are v3's, back to back behind a count, with
	// no frame around them.
	r := plainReader{br}
	var nNodes, nEdges uint32
	if err := readVals(r, &nNodes); err != nil {
		return nil, nil, err
	}
	for i := 0; i < int(nNodes); i++ {
		n, err := readNode(r, wet, i, int(nNodes), opts)
		if err != nil {
			return nil, nil, fmt.Errorf("node %d: %w", i, err)
		}
		wet.Nodes = append(wet.Nodes, n)
	}
	if err := readVals(r, &nEdges); err != nil {
		return nil, nil, err
	}
	for i := 0; i < int(nEdges); i++ {
		e, err := readEdge(r, wet, i, int(nEdges), opts)
		if err != nil {
			return nil, nil, fmt.Errorf("edge %d: %w", i, err)
		}
		wet.Edges = append(wet.Edges, e)
	}
	if wet.FirstNode < 0 || wet.FirstNode >= len(wet.Nodes) ||
		wet.LastNode < 0 || wet.LastNode >= len(wet.Nodes) {
		return nil, nil, fmt.Errorf("first/last node out of range")
	}
	return wet, rep, nil
}
