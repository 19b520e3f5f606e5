package wetio

import (
	"errors"
	"fmt"
	"io"

	"wet/internal/core"
	"wet/internal/interp"
	"wet/internal/pool"
	"wet/internal/trace"
	"wet/internal/wire"
)

func loadFramed(file []byte, opts LoadOptions, v4 bool) (*core.WET, *SalvageReport, error) {
	strict := !opts.Salvage
	secs, tail, sawEnd, err := scanSections(file, strict)
	if err != nil {
		return nil, nil, err
	}
	rep := &SalvageReport{Version: 3, BytesSkipped: tail, Truncated: !sawEnd}
	if v4 {
		rep.Version = 4
	}
	if strict && !sawEnd {
		off := int64(8)
		if len(secs) > 0 {
			last := secs[len(secs)-1]
			off = last.offset + int64(len(last.payload)) + 9
		}
		return nil, nil, &FormatError{Section: "file", Offset: off,
			Cause: fmt.Errorf("truncated or unframeable past this point: %w", io.ErrUnexpectedEOF)}
	}
	if !strict {
		// Salvage must decode eagerly to find damage.
		opts.Lazy, opts.Segments = false, nil
	}
	w, sizeRep, err := parse(secs, opts, rep, v4)
	if err != nil {
		return nil, nil, ctxCause(opts.Ctx, err)
	}
	w.RestoreIndexes(sizeRep)
	rep.SectionsRead = len(secs) - rep.SectionsDropped
	rep.NodesLoaded, rep.EdgesLoaded = len(w.Nodes), len(w.Edges)
	return w, rep, nil
}

// parse assembles a WET from framed sections under one damage policy. A
// strict load (opts.Salvage unset) fails at the first damage, and requires
// header, program, report, the optional fidelity section, the header's
// count of node and edge records, the optional conc section and end, in
// that order. A salvage load counts damage in rep and keeps what validates:
// the first intact copy of each other section, the maximal intact prefix of
// the node records, each edge record that decodes, cross references repaired.
func parse(secs []section, opts LoadOptions, rep *SalvageReport, v4 bool) (*core.WET, *core.SizeReport, error) {
	strict := !opts.Salvage
	drop := func(s *section) {
		rep.SectionsDropped++
		rep.BytesSkipped += int64(len(s.payload)) + 9
	}
	damage := func(s *section, err error) error {
		if strict {
			return err
		}
		drop(s)
		return nil
	}

	// Node and edge identities are positional (a node's ID is its index), so
	// records are numbered in file order counting damaged ones too: a record
	// must never slide into a dropped neighbour's slot, which would silently
	// rebind every cross reference.
	var tags [lastSecTag + 1]int
	for i := range secs {
		tags[secs[i].tag]++
	}
	nodeSecs, edgeSecs := make([]*section, 0, tags[secNode]), make([]*section, 0, tags[secEdge])
	var one [lastSecTag + 1]*section
	for i := range secs {
		s := &secs[i]
		if strict && i > 0 && secRank[s.tag] < secRank[secs[i-1].tag] {
			return nil, nil, &FormatError{Section: s.name(), Offset: s.offset,
				Cause: fmt.Errorf("out of order after the %s section at offset %d", secs[i-1].name(), secs[i-1].offset)}
		}
		switch {
		case s.tag == secNode:
			nodeSecs = append(nodeSecs, s)
		case s.tag == secEdge:
			edgeSecs = append(edgeSecs, s)
		case !s.crcOK:
			drop(s) // a strict scan stopped at it
		case one[s.tag] != nil:
			if err := damage(s, &FormatError{Section: s.name(), Offset: s.offset,
				Cause: fmt.Errorf("second %s section", s.name())}); err != nil {
				return nil, nil, err
			}
		case s.tag == secEnd && len(s.payload) != 0:
			if err := damage(s, &FormatError{Section: "end", Offset: s.offset,
				Cause: fmt.Errorf("end marker carries %d payload bytes", len(s.payload))}); err != nil {
				return nil, nil, err
			}
		default:
			one[s.tag] = s
		}
	}

	// Header and program are the skeleton everything else hangs off; a file
	// that lost either is beyond salvage.
	for _, tag := range []uint8{secHeader, secProgram} {
		if one[tag] == nil {
			return nil, nil, &FormatError{Section: sectionName(tag), Offset: 8,
				Cause: fmt.Errorf("%s section damaged or missing; nothing salvageable", sectionName(tag))}
		}
	}
	wet, hdr, err := parseHeaderSec(one[secHeader], v4)
	if err != nil {
		return nil, nil, err
	}
	if strict && one[secReport] == nil {
		return nil, nil, &FormatError{Section: "report", Offset: -1, Cause: fmt.Errorf("section missing")}
	}
	if strict && (len(nodeSecs) != hdr.nNodes || len(edgeSecs) != hdr.nEdges) {
		return nil, nil, &FormatError{Section: "header", Offset: one[secHeader].offset,
			Cause: fmt.Errorf("header names %d nodes and %d edges, the file holds %d and %d records",
				hdr.nNodes, hdr.nEdges, len(nodeSecs), len(edgeSecs))}
	}
	if err := parseProgramSec(one[secProgram], wet); err != nil {
		return nil, nil, err
	}
	sizeRep := &core.SizeReport{Methods: map[string]int{}}
	if rs := one[secReport]; rs != nil {
		if r, err := parseReportSec(rs); err == nil {
			sizeRep = r
		} else if err := damage(rs, err); err != nil {
			return nil, nil, err
		}
	}
	// The fidelity section's drop lists steer the record parsers below. A
	// salvage load that loses it drops the budget-degraded records like any
	// other damaged section — still the maximal loadable subset, just a
	// smaller one. A section recording the retired timestamp widening is
	// refused by salvage too: every node record of that file holds
	// quantized timestamps, which would otherwise load as exact.
	if fs := one[secFidelity]; fs != nil {
		if opts.fid, err = parseFidelitySec(fs, hdr); err != nil {
			if errors.Is(err, errWidenedTS) {
				return nil, nil, err
			}
			if err := damage(fs, err); err != nil {
				return nil, nil, err
			}
			rep.Adjustments = append(rep.Adjustments,
				"fidelity section dropped: budget-degraded records load as damaged")
		}
	}

	// Record decode — the bulk of load time — fans over the worker pool, each
	// record under its section's recover boundary into its own slot, touching
	// no shared state (RestoreNode's path decode is internally synchronized).
	// A strict fan stops at a failed record and reports the lowest-indexed
	// failure; a salvage fan marks it. Which records survive is decided
	// serially in file order, so the WET, the report and any error are the
	// same at every worker count. A dead context stops further claims; its
	// cause surfaces through ctxCause in loadFramed, not as a FormatError.
	ctx := orBackground(opts.Ctx)
	nodes := make([]*core.Node, min(len(nodeSecs), hdr.nNodes))
	slab := make([]core.Edge, min(len(edgeSecs), hdr.nEdges))
	decs := make([]wire.Dec, pool.Workers(opts.Workers, max(len(nodes), len(slab))))
	decode := func(kind string, recs []*section, n int, read func(d *wire.Dec, i int, o LoadOptions) error) ([]bool, error) {
		ok := make([]bool, n)
		return ok, pool.Run(ctx, opts.Workers, n, func(w, i int) error {
			s, d := recs[i], &decs[w]
			if !s.crcOK {
				return nil
			}
			err := guard(kind, i, s.offset, func() error {
				d.Reset(s.payload)
				if err := read(d, i, opts.ownedBy(kind, i)); err != nil {
					return err
				}
				return done(d)
			})
			if ok[i] = err == nil; strict {
				return err
			}
			return nil
		})
	}
	decoded, err := decode("node", nodeSecs, len(nodes), func(d *wire.Dec, i int, o LoadOptions) (err error) {
		nodes[i], err = readNode(d, wet, i, hdr.nNodes, o)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	// A damaged node record ends the usable prefix: later records would
	// shift into the wrong identity.
	prefix := 0
	for prefix < len(nodes) && decoded[prefix] {
		prefix++
	}
	wet.Nodes = nodes[:prefix]
	for _, s := range nodeSecs[prefix:] {
		drop(s)
	}
	rep.NodesDropped = hdr.nNodes - len(wet.Nodes)
	if len(wet.Nodes) == 0 {
		return nil, nil, &FormatError{Section: "node 0", Offset: 8,
			Cause: fmt.Errorf("no loadable node records; nothing salvageable")}
	}

	// Edge decode reads only the (now final) node table. Edge records are
	// independent of each other except for shared-label references, resolved
	// serially in file order once every slot is filled.
	alive, err := decode("edge", edgeSecs, len(slab), func(d *wire.Dec, i int, o LoadOptions) error {
		return readEdge(d, wet, &slab[i], i, hdr.nEdges, o)
	})
	if err != nil {
		return nil, nil, err
	}
	for i, s := range edgeSecs {
		if i >= len(alive) || !alive[i] {
			drop(s)
		}
	}
	// A sharer needs its representative: a sharer whose owner was lost or is
	// not a valid owner is dropped. v4 shares per segment, and a dropped edge
	// can itself own segments other edges share, so the drop cascades to a
	// fixpoint.
	for changed := true; changed; {
		changed = false
		for i := range slab {
			if !alive[i] {
				continue
			}
			if err := shareDamage(slab, alive, i); err != nil {
				if strict {
					return nil, nil, &FormatError{Section: secName("edge", i), Offset: edgeSecs[i].offset, Cause: err}
				}
				alive[i], changed = false, true
				rep.Adjustments = append(rep.Adjustments, fmt.Sprintf("edge record %d dropped: %v", i, err))
			}
		}
	}
	wet.Edges = make([]*core.Edge, 0, len(slab))
	for i := range slab {
		if alive[i] {
			wet.Edges = append(wet.Edges, &slab[i])
		}
	}
	rep.EdgesDropped = hdr.nEdges - len(wet.Edges)
	// Share references name file indices; a dropped edge shifts every later
	// one down.
	var newIdx []int
	if len(wet.Edges) < len(slab) {
		newIdx = make([]int, len(slab))
		for i, k := 0, 0; i < len(slab); i++ {
			newIdx[i] = k
			if alive[i] {
				k++
			}
		}
		for _, e := range wet.Edges {
			if e.SharedWith >= 0 {
				e.SharedWith = newIdx[e.SharedWith]
			}
			for _, sg := range e.Segs {
				if sg.SharedWith >= 0 {
					sg.SharedWith = newIdx[sg.SharedWith]
				}
			}
		}
	}

	// The fidelity report names records by their file indices: its drop
	// lists are filtered to the records loaded and the edge indices remapped
	// before the report is attached (as a fresh value: the parse-time lookup
	// index is keyed by the file indices).
	if opts.fid != nil {
		f := &core.FidelityReport{
			BudgetBytes: opts.fid.BudgetBytes, FloorBytes: opts.fid.FloorBytes,
			AchievedBytes: opts.fid.AchievedBytes,
		}
		for _, d := range opts.fid.DroppedGroups {
			if d.Node < len(wet.Nodes) {
				f.DroppedGroups = append(f.DroppedGroups, d)
			}
		}
		for _, d := range opts.fid.DroppedEdges {
			if d.Edge < len(alive) && alive[d.Edge] {
				if newIdx != nil {
					d.Edge = newIdx[d.Edge]
				}
				f.DroppedEdges = append(f.DroppedEdges, d)
			}
		}
		installFidelity(wet, f)
	}

	// The concurrency section is self-contained: salvage drops a damaged one
	// and the trace degrades to its sequential view.
	if cs := one[secConc]; cs != nil {
		if wet.Conc, err = parseConcSec(cs, opts, &wet.Raw); err != nil {
			if err := damage(cs, err); err != nil {
				return nil, nil, err
			}
			rep.Adjustments = append(rep.Adjustments,
				"concurrency section dropped: race queries unavailable on the salvaged trace")
		}
	}

	// A strict file needs no repair: its first/last nodes must be present.
	if adj := wet.SanitizeSalvaged(); len(adj) > 0 {
		if strict {
			return nil, nil, &FormatError{Section: "header", Offset: one[secHeader].offset,
				Cause: fmt.Errorf("first/last node out of range")}
		}
		rep.Adjustments = append(rep.Adjustments, adj...)
	}
	return wet, sizeRep, nil
}

// header carries the counts the section sequence is checked against.
type header struct {
	nNodes, nEdges int
}

func parseHeaderSec(s *section, v4 bool) (*core.WET, header, error) {
	wet := &core.WET{}
	var hdr header
	err := guard("header", -1, s.offset, func() error {
		d := wire.NewDec(s.payload)
		for _, f := range rawHeaderFields(&wet.Raw) {
			*f = d.U64()
		}
		wet.Time = d.U32()
		wet.FirstNode, wet.LastNode = int(d.I32()), int(d.I32())
		hdr.nNodes, hdr.nEdges = int(d.U32()), int(d.U32())
		if v4 {
			wet.EpochTS, wet.Epochs = d.U32(), int(d.U32())
			if err := d.Err(); err != nil {
				return err
			}
			if wet.EpochTS == 0 {
				return fmt.Errorf("v4 file with epoch size 0")
			}
			if want := (uint64(wet.Time) + uint64(wet.EpochTS) - 1) / uint64(wet.EpochTS); uint64(wet.Epochs) != want {
				return fmt.Errorf("%d epochs inconsistent with time %d at epoch size %d", wet.Epochs, wet.Time, wet.EpochTS)
			}
		}
		return done(d)
	})
	return wet, hdr, err
}

func parseProgramSec(s *section, wet *core.WET) error {
	return guard("program", -1, s.offset, func() error {
		d := wire.NewDec(s.payload)
		prog, err := loadProgram(d)
		if err != nil {
			return err
		}
		if err := done(d); err != nil {
			return err
		}
		st, err := interp.Analyze(prog)
		if err != nil {
			return fmt.Errorf("reanalyze: %w", err)
		}
		wet.Prog, wet.Static = prog, st
		return nil
	})
}

func parseReportSec(s *section) (rep *core.SizeReport, err error) {
	err = guard("report", -1, s.offset, func() (err error) {
		d := wire.NewDec(s.payload)
		if rep, err = loadReport(d); err != nil {
			return err
		}
		return done(d)
	})
	return rep, err
}

// parseConcSec deserializes the optional concurrency section. Structural
// alignment of the record streams is validated here; the deeper invariants
// (thread timestamp partition, kind and thread ranges) belong to
// core.WET.Validate.
func parseConcSec(s *section, opts LoadOptions, raw *trace.RawStats) (conc *core.Conc, err error) {
	opts = opts.ownedBy("conc", -1)
	err = guard("conc", -1, s.offset, func() error {
		d := wire.NewDec(s.payload)
		raw.SyncOps, raw.SharedAcc = d.U64(), d.U64()
		nThreads := d.Count(1)
		if err := d.Err(); err != nil {
			return err
		}
		if nThreads == 0 {
			return fmt.Errorf("concurrency section names no threads")
		}
		c := &core.Conc{ThreadTS: make([]*core.ConcStream, nThreads)}
		for i := range c.ThreadTS {
			c.ThreadTS[i] = &core.ConcStream{}
		}
		for _, cs := range c.Streams() {
			var err error
			if cs.S, err = loadStream(d, opts); err != nil {
				return err
			}
		}
		if n := c.SyncTS.Len(); c.SyncKind.Len() != n || c.SyncThread.Len() != n || c.SyncObj.Len() != n {
			return fmt.Errorf("sync record streams are misaligned")
		}
		if n := c.AccTS.Len(); c.AccThread.Len() != n || c.AccAddr.Len() != n ||
			c.AccKind.Len() != n || c.AccStmt.Len() != n {
			return fmt.Errorf("access record streams are misaligned")
		}
		if err := done(d); err != nil {
			return err
		}
		conc = c
		return nil
	})
	return conc, err
}

// readCFList reads a control-flow successor/predecessor list and validates
// every entry names a node of this file.
func readCFList(d *wire.Dec, nNodes int) ([]int, error) {
	s, err := readInts(d)
	if err != nil {
		return nil, err
	}
	for _, v := range s {
		if v < 0 || v >= nNodes {
			return nil, fmt.Errorf("control-flow list entry %d outside [0,%d)", v, nNodes)
		}
	}
	return s, nil
}

// secName names a section for an error or a segment owner: the kind alone,
// or "kind id" for a numbered record (id >= 0).
func secName(kind string, id int) string {
	if id < 0 {
		return kind
	}
	return fmt.Sprintf("%s %d", kind, id)
}

// guard runs one section's parse under a recover boundary: structural
// errors and decoder panics both surface as *FormatError locating the
// section (see secName; the name is only built on failure).
func guard(kind string, id int, offset int64, fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &FormatError{Section: secName(kind, id), Offset: offset, Cause: fmt.Errorf("decoder panic: %v", p)}
		}
	}()
	if e := fn(); e != nil {
		if fe, ok := e.(*FormatError); ok {
			return fe
		}
		return &FormatError{Section: secName(kind, id), Offset: offset, Cause: e}
	}
	return nil
}

// done verifies a section payload was consumed exactly: nothing read past
// its end, and no trailing garbage (which in a CRC-valid section means a
// forged or mis-framed file).
func done(d *wire.Dec) error {
	if err := d.Err(); err != nil {
		return err
	}
	if n := d.Remaining(); n != 0 {
		return fmt.Errorf("%d trailing bytes in section payload", n)
	}
	return nil
}
