// Package wetio persists frozen Whole Execution Traces to disk and loads
// them back, preserving the compressed stream states — the WET never has to
// be decompressed or rebuilt. The paper's scenario of keeping whole-run
// profiles around for later mining depends on exactly this, which makes the
// .wet file a long-lived artifact that must survive truncation, bit rot,
// and version skew.
//
// Format v3 (little endian): a magic/version preamble followed by framed
// sections — header, IR program, size report, one section per node record,
// one per edge record, and an end marker — each carrying its byte length
// and a CRC32-C (see format.go). Derived data (statement lists, value
// groups, adjacency, statement occurrences) is recomputed at load from the
// program, so the file stays close to the information-theoretic content of
// the WET.
//
// Load drains its reader once, then works on the bytes: it verifies every
// section checksum before parsing anything, decodes every payload in place
// (internal/wire) so no allocation outruns the bytes actually present,
// converts decoder panics into *FormatError, and in salvage mode degrades
// gracefully: damaged node/edge records are skipped and the maximal loadable
// prefix is returned together with a SalvageReport. Version 2 files
// (unframed, no checksums) still load, in strict mode, through the same
// record decoder.
//
// Format v4 (see v4.go) reuses the v3 preamble and section framing
// unchanged but stores epoch-segmented WETs: the header additionally
// carries the epoch size and count, and node/edge payloads hold one label
// segment per epoch instead of one whole-run stream. Save picks the
// version from the WET itself — a non-segmented WET always writes v3, so
// pre-segmentation output is byte-identical.
package wetio

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"wet/internal/core"
	"wet/internal/interp"
	"wet/internal/ir"
	"wet/internal/pool"
	"wet/internal/stream"
	"wet/internal/trace"
	"wet/internal/wire"
)

const (
	magic     = uint32(0x57455446) // "WETF"
	version   = uint32(3)
	versionV2 = uint32(2)
	versionV4 = uint32(4)
)

var order = binary.LittleEndian

// Save writes a frozen WET to w. Single-epoch WETs use format v3 —
// byte-for-byte the pre-segmentation format — and epoch-segmented WETs
// (core.WET.Segmented) use format v4, which frames the same section
// machinery around per-epoch label segments. See SaveCtx for cancellation
// and SaveFile for an atomic (crash-safe) destination.
func Save(w io.Writer, wet *core.WET) error {
	return saveCtx(context.Background(), w, wet)
}

func saveCtx(ctx context.Context, w io.Writer, wet *core.WET) error {
	if !wet.Frozen() {
		return fmt.Errorf("wetio: WET must be frozen before saving")
	}
	segmented := wet.Segmented()
	ver := version
	if segmented {
		ver = versionV4
	}
	sw := newSectionWriter(failWriter{w}, order.AppendUint32(order.AppendUint32(nil, magic), ver))

	for _, f := range rawHeaderFields(&wet.Raw) {
		sw.U64(*f)
	}
	sw.U32(wet.Time)
	sw.I32(int32(wet.FirstNode))
	sw.I32(int32(wet.LastNode))
	sw.U32(uint32(len(wet.Nodes)))
	sw.U32(uint32(len(wet.Edges)))
	if segmented {
		sw.U32(wet.EpochTS)
		sw.U32(uint32(wet.Epochs))
	}
	if err := sw.emit(secHeader); err != nil {
		return err
	}

	saveProgram(&sw.Enc, wet.Prog)
	if err := sw.emit(secProgram); err != nil {
		return err
	}

	saveReport(&sw.Enc, wet.Report())
	if err := sw.emit(secReport); err != nil {
		return err
	}

	// The fidelity section is written only when the byte-budgeted freeze
	// actually shed something: lossless output (no budget, or a budget at or
	// above the floor) stays byte-identical to pre-budget releases.
	if wet.Fidelity.Degraded() {
		saveFidelityPayload(&sw.Enc, wet.Fidelity)
		if err := sw.emit(secFidelity); err != nil {
			return err
		}
	}

	// Cancellation granularity is one record section: a cancelled Save
	// stops at a section boundary (the torn-write recovery tests rely on
	// boundary-aligned tears being the worst case the salvage loader sees
	// from a cooperative abort).
	for _, n := range wet.Nodes {
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		if err := writeNode(&sw.Enc, n, segmented); err != nil {
			return err
		}
		if err := sw.emit(secNode); err != nil {
			return err
		}
	}
	for _, e := range wet.Edges {
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		if err := writeEdge(&sw.Enc, e, segmented); err != nil {
			return err
		}
		if err := sw.emit(secEdge); err != nil {
			return err
		}
	}
	// Concurrency streams ride in one optional section between the edge
	// records and the end marker. Single-threaded WETs (Conc nil) emit
	// nothing here, keeping their bytes identical to pre-concurrency output.
	if wet.Conc != nil {
		if err := saveConcPayload(&sw.Enc, wet); err != nil {
			return err
		}
		if err := sw.emit(secConc); err != nil {
			return err
		}
	}
	if err := sw.emit(secEnd); err != nil {
		return err
	}
	return sw.close()
}

// rawHeaderFields lists the RawStats fields that belong to the file
// header, in their serialized order. The two concurrency counters
// (SyncOps, SharedAcc) are deliberately absent: they ride in the optional
// concurrency section instead, so single-threaded files keep the exact
// header bytes of pre-concurrency releases and v2 fixtures stay loadable.
func rawHeaderFields(r *trace.RawStats) []*uint64 {
	return []*uint64{&r.StmtExecs, &r.DefExecs, &r.DynDD, &r.DynCD,
		&r.BlockExecs, &r.PathExecs, &r.Loads, &r.Stores, &r.Branches}
}

func saveConcPayload(w *wire.Enc, wet *core.WET) error {
	c := wet.Conc
	w.U64(wet.Raw.SyncOps)
	w.U64(wet.Raw.SharedAcc)
	w.U32(uint32(c.NumThreads()))
	for _, cs := range c.Streams() {
		if err := stream.Encode(w, cs.S); err != nil {
			return err
		}
	}
	return nil
}

// LoadOptions tunes Load.
type LoadOptions struct {
	// Ctx cancels the load cooperatively: the read of the file aborts at the
	// next Read of the source, section decode between sections. A cancelled
	// Load returns context.Cause(Ctx) — never a *FormatError, a cancelled
	// file is not a corrupt one. Nil means context.Background().
	Ctx context.Context
	// MemBudget is a soft ceiling, in bytes, on the load's working set.
	// When the estimate for the requested options exceeds it, the load
	// degrades gracefully instead of failing — parallel decode falls back
	// to serial, eager decode falls back to lazy — and reports what it shed
	// in SalvageReport.Degradation. Zero means unlimited. See
	// planLoadBudget for the ladder.
	MemBudget uint64
	// Salvage makes Load of a damaged v3 file return the maximal loadable
	// prefix instead of failing: node records after the first damaged one
	// and individually damaged edge records are dropped, and cross
	// references are repaired (see SalvageReport). Files that lose their
	// header or program section are beyond salvage. v2 files predate the
	// framing and always load strictly.
	Salvage bool
	// VerifyStreams additionally walks every deserialized stream over its
	// full length (both directions, on a clone) so that a stream whose
	// entry stores are inconsistent despite a valid checksum is rejected at
	// load instead of panicking in a later query. VerifyStreams overrides
	// Lazy: certification requires the decode.
	VerifyStreams bool
	// Workers bounds the goroutines decoding node and edge sections in
	// parallel: 0 means GOMAXPROCS, 1 decodes serially. Assembly is
	// deterministic — the loaded WET and any error reported are identical
	// at every width. The salvage path always decodes serially (its
	// share-repair cascade is order-dependent).
	Workers int
	// Lazy defers each predictor-backed stream's decode — the normalization
	// traversal that dominates load time — until a cursor first touches it,
	// so queries pay decompression proportional to the segments they cross
	// rather than the trace length: the stream loads as a *stream.Evictable
	// that nothing registers, hooks or evicts. Framing, checksums, and every
	// structural field are still validated up front; single-flight decode
	// keeps concurrent first touches safe. Each deferred stream holds a view
	// of the file's bytes for as long as it lives (Save writes them back
	// without decoding), so the buffer the file was read into lives as long
	// as the trace. The trade: a stream whose entry stores were forged to
	// pass structural checks fails at first touch (a typed
	// *stream.DecodeError, retried on the next touch) instead of failing the
	// load (use VerifyStreams or an eager load for untrusted files). Ignored
	// on the salvage path, which must find damage eagerly, and under
	// VerifyStreams (certification requires the decode).
	Lazy bool
	// Segments is Lazy plus segment-granular residency: every deferred stream
	// owns a copy of its serialized bytes (the file buffer is released) and
	// is registered in the given source with its owning record and epoch, so
	// a cache can hook its decodes and drop and rebuild its decoded state.
	// Every container version registers; ignored where Lazy is.
	Segments *SegmentSource

	// segOwner/segEpoch carry the registering record's identity down to
	// loadStream (see ownedBy).
	segOwner string
	segEpoch int

	// fid carries the fidelity report (parsed before the record sections)
	// down to the node/edge parsers, which mark the listed groups/edges
	// Dropped and relax the stream-length checks their placeholder or
	// absent streams cannot meet.
	fid *core.FidelityReport
}

// Load reads a WET written by Save. Failures are reported as *FormatError
// where the file structure is at fault.
func Load(r io.Reader, opts LoadOptions) (*core.WET, error) {
	w, _, err := LoadWithReport(r, opts)
	return w, err
}

// LoadWithReport is Load plus the per-section accounting: which sections
// were read, dropped, or skipped. The report is non-nil whenever the WET
// is (for clean strict loads it reports zero losses).
func LoadWithReport(r io.Reader, opts LoadOptions) (*core.WET, *SalvageReport, error) {
	file, err := drain(opts.Ctx, r)
	if err != nil {
		return nil, nil, err
	}
	d := wire.NewDec(file)
	m, v := d.U32(), d.U32()
	if err := d.Err(); err != nil {
		return nil, nil, &FormatError{Section: "preamble", Cause: err}
	}
	if m != magic {
		return nil, nil, &FormatError{Section: "preamble", Cause: fmt.Errorf("bad magic %#x", m)}
	}
	switch v {
	case versionV2:
		w, err := loadV2(d, opts)
		if err != nil {
			return nil, nil, ctxCause(opts.Ctx, err)
		}
		rep := &SalvageReport{Version: 2, NodesLoaded: len(w.Nodes), EdgesLoaded: len(w.Edges)}
		return w, rep, nil
	case version, versionV4:
		return loadFramed(file, opts, v == versionV4)
	}
	return nil, nil, &FormatError{Section: "preamble", Cause: fmt.Errorf("unsupported version %d", v)}
}

// drain reads r to its end — the one place a load touches its reader. A
// source that knows its length (bytes.Reader, bytes.Buffer, strings.Reader)
// is read into a buffer of exactly that size. A read error that is more than
// the file ending fails the load as itself, never as file damage (readFault).
func drain(ctx context.Context, r io.Reader) (file []byte, err error) {
	lr := loadReader(ctx, r)
	if sized, ok := r.(interface{ Len() int }); ok {
		file = make([]byte, sized.Len())
		var n int
		n, err = io.ReadFull(lr, file)
		file = file[:n]
	} else {
		file, err = io.ReadAll(lr)
	}
	if err := readFault(err); err != nil {
		return nil, ctxCause(ctx, err)
	}
	return file, nil
}

func loadFramed(file []byte, opts LoadOptions, v4 bool) (*core.WET, *SalvageReport, error) {
	strict := !opts.Salvage
	secs, tail, sawEnd, err := scanSections(file, strict)
	if err != nil {
		return nil, nil, err
	}
	fileVer := 3
	if v4 {
		fileVer = 4
	}
	rep := &SalvageReport{Version: fileVer, BytesSkipped: tail, Truncated: !sawEnd}
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
	// The budget ladder adjusts the options before any decode starts; the
	// rungs taken (if any) ride along on the report.
	var deg *core.DegradationReport
	opts, deg = planLoadBudget(opts, secs)
	rep.Degradation = deg
	var w *core.WET
	var sizeRep *core.SizeReport
	if strict {
		w, sizeRep, err = parseStrict(secs, opts, v4)
		rep.SectionsRead = len(secs)
	} else {
		w, sizeRep, err = parseSalvage(secs, opts, rep, v4)
	}
	if err != nil {
		return nil, nil, ctxCause(opts.Ctx, err)
	}
	w.RestoreIndexes(sizeRep)
	rep.NodesLoaded, rep.EdgesLoaded = len(w.Nodes), len(w.Edges)
	return w, rep, nil
}

// parseStrict requires the exact section sequence header, program, report,
// nNodes nodes, nEdges edges, end — anything else is a FormatError naming
// the offending section.
func parseStrict(secs []section, opts LoadOptions, v4 bool) (*core.WET, *core.SizeReport, error) {
	ctx := orBackground(opts.Ctx)
	idx := 0
	take := func(tag uint8) (*section, error) {
		if idx >= len(secs) {
			return nil, &FormatError{Section: sectionName(tag), Offset: -1,
				Cause: fmt.Errorf("section missing (file ends after %d sections)", len(secs))}
		}
		s := &secs[idx]
		if s.tag != tag {
			return nil, &FormatError{Section: s.name(), Offset: s.offset,
				Cause: fmt.Errorf("expected %s section here", sectionName(tag))}
		}
		idx++
		return s, nil
	}

	hs, err := take(secHeader)
	if err != nil {
		return nil, nil, err
	}
	wet, hdr, err := parseHeaderSec(hs, v4)
	if err != nil {
		return nil, nil, err
	}
	ps, err := take(secProgram)
	if err != nil {
		return nil, nil, err
	}
	if err := parseProgramSec(ps, wet); err != nil {
		return nil, nil, err
	}
	rs, err := take(secReport)
	if err != nil {
		return nil, nil, err
	}
	sizeRep, err := parseReportSec(rs)
	if err != nil {
		return nil, nil, err
	}

	// The fidelity section is optional: only byte-budgeted containers that
	// actually degraded carry one. Its drop lists steer the record parsers
	// below.
	if idx < len(secs) && secs[idx].tag == secFidelity {
		fs := &secs[idx]
		idx++
		if opts.fid, err = parseFidelitySec(fs, hdr); err != nil {
			return nil, nil, err
		}
	}

	// Collect the node and edge sections up front, then fan their payload
	// decode — the bulk of load time — over the worker pool. Each section
	// decodes into its own slot and touches no shared state (RestoreNode's
	// path decode is internally synchronized), so assembly is deterministic:
	// the slices below are identical at every worker count, and a corrupt
	// file reports the lowest-indexed failing section just as a serial parse
	// would.
	takeRun := func(tag uint8, n int) ([]section, error) {
		start := idx
		for idx-start < n {
			if _, err := take(tag); err != nil {
				return nil, err
			}
		}
		return secs[start:idx], nil
	}
	nodeSecs, err := takeRun(secNode, hdr.nNodes)
	if err != nil {
		return nil, nil, err
	}
	edgeSecs, err := takeRun(secEdge, hdr.nEdges)
	if err != nil {
		return nil, nil, err
	}

	// Cancellation granularity on the decode fan is one section: a dead
	// context stops further claims, and its cause surfaces through ctxCause
	// in loadFramed rather than as a FormatError.
	decs := make([]wire.Dec, pool.Workers(opts.Workers, max(hdr.nNodes, hdr.nEdges)))
	nodes := make([]*core.Node, hdr.nNodes)
	err = pool.Run(ctx, opts.Workers, hdr.nNodes, func(w, i int) error {
		return parseRecord("node", &nodeSecs[i], i, opts, &decs[w], func(d *wire.Dec, o LoadOptions) (err error) {
			nodes[i], err = readNode(d, wet, i, hdr.nNodes, o)
			return err
		})
	})
	if err != nil {
		return nil, nil, err
	}
	wet.Nodes = nodes

	// Edge decode reads only the (now complete) node table; the v4 share
	// references point at earlier edges, so they are validated serially in
	// file order once every slot is filled.
	slab := make([]core.Edge, hdr.nEdges)
	edges := make([]*core.Edge, hdr.nEdges)
	err = pool.Run(ctx, opts.Workers, hdr.nEdges, func(w, i int) error {
		edges[i] = &slab[i]
		return parseRecord("edge", &edgeSecs[i], i, opts, &decs[w], func(d *wire.Dec, o LoadOptions) error {
			return readEdge(d, wet, edges[i], i, hdr.nEdges, o)
		})
	})
	if err != nil {
		return nil, nil, err
	}
	wet.Edges = edges
	for i, e := range wet.Edges {
		if err := checkSegShares(wet, e); err != nil {
			return nil, nil, &FormatError{Section: fmt.Sprintf("edge %d", i), Offset: edgeSecs[i].offset, Cause: err}
		}
	}
	// The concurrency section is optional: single-threaded files (and every
	// pre-concurrency file) simply do not carry one.
	if idx < len(secs) && secs[idx].tag == secConc {
		cs := &secs[idx]
		idx++
		conc, err := parseConcSec(cs, opts, &wet.Raw)
		if err != nil {
			return nil, nil, err
		}
		wet.Conc = conc
	}
	es, err := take(secEnd)
	if err != nil {
		return nil, nil, err
	}
	if idx != len(secs) {
		extra := &secs[idx]
		return nil, nil, &FormatError{Section: extra.name(), Offset: extra.offset,
			Cause: fmt.Errorf("unexpected section after end marker")}
	}
	if len(es.payload) != 0 {
		return nil, nil, &FormatError{Section: "end", Offset: es.offset,
			Cause: fmt.Errorf("end marker carries %d payload bytes", len(es.payload))}
	}
	if wet.FirstNode < 0 || wet.FirstNode >= len(wet.Nodes) ||
		wet.LastNode < 0 || wet.LastNode >= len(wet.Nodes) {
		return nil, nil, &FormatError{Section: "header", Offset: hs.offset,
			Cause: fmt.Errorf("first/last node out of range")}
	}
	if opts.fid != nil {
		installFidelity(wet, opts.fid)
	}
	return wet, sizeRep, nil
}

// parseSalvage keeps whatever validates: bad or out-of-place sections are
// dropped, node records form the maximal intact prefix, edge records are
// kept individually, and cross references are repaired afterwards.
func parseSalvage(secs []section, opts LoadOptions, rep *SalvageReport, v4 bool) (*core.WET, *core.SizeReport, error) {
	var hdrSec, progSec, repSec, fidSec, concSec *section
	// Node and edge identities are positional (a node's ID is its index), so
	// original indices are assigned by file order counting damaged sections
	// too — a record must never slide into a dropped neighbour's slot, which
	// would silently rebind every cross reference.
	type tagged struct {
		s    *section
		orig int
	}
	var nodeSecs, edgeSecs []tagged
	drop := func(s *section) {
		rep.SectionsDropped++
		rep.BytesSkipped += int64(len(s.payload)) + 9
	}
	for i := range secs {
		s := &secs[i]
		switch s.tag {
		case secNode:
			nodeSecs = append(nodeSecs, tagged{s, len(nodeSecs)})
			continue
		case secEdge:
			edgeSecs = append(edgeSecs, tagged{s, len(edgeSecs)})
			continue
		}
		if !s.crcOK {
			drop(s)
			continue
		}
		switch s.tag {
		case secHeader:
			if hdrSec == nil {
				hdrSec = s
			} else {
				drop(s)
			}
		case secProgram:
			if progSec == nil {
				progSec = s
			} else {
				drop(s)
			}
		case secReport:
			if repSec == nil {
				repSec = s
			} else {
				drop(s)
			}
		case secFidelity:
			if fidSec == nil {
				fidSec = s
			} else {
				drop(s)
			}
		case secConc:
			if concSec == nil {
				concSec = s
			} else {
				drop(s)
			}
		case secEnd:
			rep.SectionsRead++
		}
	}

	// Header and program are the skeleton everything else hangs off; a file
	// that lost either is beyond salvage.
	if hdrSec == nil {
		return nil, nil, &FormatError{Section: "header", Offset: 8,
			Cause: fmt.Errorf("header section damaged or missing; nothing salvageable")}
	}
	wet, hdr, err := parseHeaderSec(hdrSec, v4)
	if err != nil {
		return nil, nil, err
	}
	rep.SectionsRead++
	if progSec == nil {
		return nil, nil, &FormatError{Section: "program", Offset: 8,
			Cause: fmt.Errorf("program section damaged or missing; nothing salvageable")}
	}
	if err := parseProgramSec(progSec, wet); err != nil {
		return nil, nil, err
	}
	rep.SectionsRead++

	sizeRep := &core.SizeReport{Methods: map[string]int{}}
	if repSec != nil {
		if r, rerr := parseReportSec(repSec); rerr == nil {
			sizeRep = r
			rep.SectionsRead++
		} else {
			drop(repSec)
		}
	}

	// A damaged fidelity section loses the drop lists the record parsers
	// relax their checks with, so the budget-degraded records below will be
	// dropped like any other damaged section — still the maximal loadable
	// subset, just a smaller one.
	if fidSec != nil {
		if f, ferr := parseFidelitySec(fidSec, hdr); ferr == nil {
			opts.fid = f
			rep.SectionsRead++
		} else {
			drop(fidSec)
			rep.Adjustments = append(rep.Adjustments,
				"fidelity section dropped: budget-degraded records load as damaged")
		}
	}

	// Node records: a WET's node IDs are their slice indexes, so a damaged
	// record ends the usable prefix — later records would shift into the
	// wrong identity.
	var dec wire.Dec
	for _, ts := range nodeSecs {
		if !ts.s.crcOK || ts.orig >= hdr.nNodes || len(wet.Nodes) != ts.orig {
			drop(ts.s)
			continue
		}
		var n *core.Node
		nerr := parseRecord("node", ts.s, ts.orig, opts, &dec, func(d *wire.Dec, o LoadOptions) (err error) {
			n, err = readNode(d, wet, ts.orig, hdr.nNodes, o)
			return err
		})
		if nerr != nil {
			drop(ts.s)
			continue
		}
		wet.Nodes = append(wet.Nodes, n)
		rep.SectionsRead++
	}
	rep.NodesDropped = hdr.nNodes - len(wet.Nodes)
	if len(wet.Nodes) == 0 {
		return nil, nil, &FormatError{Section: "node 0", Offset: 8,
			Cause: fmt.Errorf("no loadable node records; nothing salvageable")}
	}

	// Edge records are independent of each other except for shared-label
	// references, resolved below.
	type keptEdge struct {
		e    *core.Edge
		orig int
	}
	var kept []keptEdge
	for _, ts := range edgeSecs {
		if !ts.s.crcOK || ts.orig >= hdr.nEdges {
			drop(ts.s)
			continue
		}
		e := new(core.Edge)
		eerr := parseRecord("edge", ts.s, ts.orig, opts, &dec, func(d *wire.Dec, o LoadOptions) error {
			return readEdge(d, wet, e, ts.orig, hdr.nEdges, o)
		})
		if eerr != nil {
			drop(ts.s)
			continue
		}
		kept = append(kept, keptEdge{e, ts.orig})
		rep.SectionsRead++
	}

	// Shared-label edges need their representative: drop sharers whose
	// owner was lost or is not a valid owner, then remap indexes. v4 shares
	// per segment, and a dropped edge can itself own segments other edges
	// share, so the drop cascades to a fixpoint.
	owners := make(map[int]*core.Edge, len(kept))
	alive := make(map[int]bool, len(kept))
	for _, k := range kept {
		owners[k.orig], alive[k.orig] = k.e, true
	}
	for changed := true; changed; {
		changed = false
		for _, k := range kept {
			if !alive[k.orig] {
				continue
			}
			if why := shareDamage(owners, alive, k.e, k.orig); why != "" {
				alive[k.orig] = false
				changed = true
				rep.Adjustments = append(rep.Adjustments,
					fmt.Sprintf("edge record %d dropped: %s", k.orig, why))
			}
		}
	}
	var surviving []keptEdge
	for _, k := range kept {
		if alive[k.orig] {
			surviving = append(surviving, k)
		}
	}
	newIdx := make(map[int]int, len(surviving))
	for i, k := range surviving {
		newIdx[k.orig] = i
	}
	for _, k := range surviving {
		if k.e.SharedWith >= 0 {
			k.e.SharedWith = newIdx[k.e.SharedWith]
		}
		for _, sg := range k.e.Segs {
			if sg.SharedWith >= 0 {
				sg.SharedWith = newIdx[sg.SharedWith]
			}
		}
		wet.Edges = append(wet.Edges, k.e)
	}
	rep.EdgesDropped = hdr.nEdges - len(wet.Edges)

	// The fidelity report names records by their file indices; salvage may
	// have truncated the node prefix and remapped the edge table, so the
	// drop lists are filtered to survivors and the edge indices remapped
	// before the report is attached (as a fresh value: the parse-time
	// lookup index is keyed by the original indices).
	if opts.fid != nil {
		f := &core.FidelityReport{
			BudgetBytes: opts.fid.BudgetBytes, FloorBytes: opts.fid.FloorBytes,
			AchievedBytes: opts.fid.AchievedBytes, TSStride: opts.fid.TSStride,
		}
		for _, d := range opts.fid.DroppedGroups {
			if d.Node < len(wet.Nodes) {
				f.DroppedGroups = append(f.DroppedGroups, d)
			}
		}
		for _, d := range opts.fid.DroppedEdges {
			if ni, ok := newIdx[d.Edge]; ok {
				d.Edge = ni
				f.DroppedEdges = append(f.DroppedEdges, d)
			}
		}
		installFidelity(wet, f)
	}

	// The concurrency section is self-contained; a damaged one is dropped
	// (the trace degrades to its sequential view) rather than failing the
	// salvage.
	if concSec != nil {
		if c, cerr := parseConcSec(concSec, opts, &wet.Raw); cerr == nil {
			wet.Conc = c
			rep.SectionsRead++
		} else {
			drop(concSec)
			rep.Adjustments = append(rep.Adjustments,
				"concurrency section dropped: race queries unavailable on the salvaged trace")
		}
	}

	rep.Adjustments = append(rep.Adjustments, wet.SanitizeSalvaged()...)
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
	if err != nil {
		return nil, header{}, err
	}
	return wet, hdr, nil
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

func parseReportSec(s *section) (*core.SizeReport, error) {
	var rep *core.SizeReport
	err := guard("report", -1, s.offset, func() (err error) {
		d := wire.NewDec(s.payload)
		if rep, err = loadReport(d); err != nil {
			return err
		}
		return done(d)
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// parseConcSec deserializes the optional concurrency section. Structural
// alignment of the record streams is validated here; the deeper invariants
// (thread timestamp partition, kind and thread ranges) belong to
// core.WET.Validate.
func parseConcSec(s *section, opts LoadOptions, raw *trace.RawStats) (*core.Conc, error) {
	var conc *core.Conc
	opts = opts.ownedBy("conc", -1)
	err := guard("conc", -1, s.offset, func() error {
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
		conc = c
		return done(d)
	})
	if err != nil {
		return nil, err
	}
	return conc, nil
}

// deferred reports whether the load scans its predictor-backed streams and
// leaves their decode to the first touch: the one predicate behind both Lazy
// and Segments, which loadStream and the budget estimate share.
func (o LoadOptions) deferred() bool {
	return (o.Lazy || o.Segments != nil) && !o.VerifyStreams
}

// ownedBy names the record whose streams are about to be read, for the
// segment index: section kind and id (see secName), whole-run epoch.
func (o LoadOptions) ownedBy(kind string, id int) LoadOptions {
	if o.Segments != nil {
		o.segOwner, o.segEpoch = secName(kind, id), -1
	}
	return o
}

// loadStream deserializes the stream at the decoder's position, optionally
// certifying full traversability (LoadOptions.VerifyStreams) or deferring the
// decode until first touch (LoadOptions.deferred; structural validation still
// happens here). A deferred or packed stream keeps a view of the file's bytes;
// with LoadOptions.Segments it takes its own copy instead, and a deferred one
// is registered in the segment index, to drop and rebuild its decoded state.
func loadStream(d *wire.Dec, opts LoadOptions) (stream.Stream, error) {
	decode := stream.Load
	if opts.deferred() {
		decode = stream.Scan
	}
	s, n, err := decode(d.Rest())
	if err != nil {
		return nil, err
	}
	d.Bytes(n)
	if opts.Segments != nil && opts.deferred() {
		stream.Own(s)
		if ev, ok := s.(*stream.Evictable); ok {
			opts.Segments.add(opts.segOwner, opts.segEpoch, ev)
		}
	}
	if opts.VerifyStreams {
		if err := stream.WalkCheck(s); err != nil {
			return nil, err
		}
	}
	return s, nil
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

// --- program (de)serialization ---

func saveProgram(w *wire.Enc, p *ir.Program) {
	w.I64(p.MemWords)
	w.I32(int32(p.Entry))
	w.U32(uint32(len(p.Funcs)))
	for _, f := range p.Funcs {
		putString(w, f.Name)
		w.I32(int32(f.Params))
		w.I32(int32(f.NumRegs))
		w.U32(uint32(len(f.Blocks)))
		for _, b := range f.Blocks {
			putInts(w, b.Succs)
			w.U32(uint32(len(b.Stmts)))
			for _, s := range b.Stmts {
				saveStmt(w, s)
			}
		}
	}
}

func saveStmt(w *wire.Enc, s *ir.Stmt) {
	w.U8(uint8(s.Op))
	w.I32(int32(s.Dest))
	saveOperand(w, s.A)
	saveOperand(w, s.B)
	w.I64(s.Off)
	if s.Op == ir.OpCall || s.Op == ir.OpSpawn {
		putString(w, s.CalleeName)
		w.U32(uint32(len(s.Args)))
		for _, a := range s.Args {
			saveOperand(w, a)
		}
	}
}

func saveOperand(w *wire.Enc, o ir.Operand) {
	w.Bool(o.IsReg)
	w.I32(int32(o.Reg))
	w.I64(o.Imm)
}

func loadOperand(d *wire.Dec) ir.Operand {
	isReg, reg, imm := d.U8(), d.I32(), d.I64()
	return ir.Operand{IsReg: isReg == 1, Reg: ir.Reg(reg), Imm: imm}
}

// Smallest encodings of the program's repeated units, for bounding their
// counts by the bytes present.
const (
	minOperandBytes = 1 + 4 + 8
	minStmtBytes    = 1 + 4 + 2*minOperandBytes + 8
	minBlockBytes   = 4 + 4
	minFuncBytes    = 4 + 4 + 4 + 4
)

func loadProgram(d *wire.Dec) (*ir.Program, error) {
	memWords, entry := d.I64(), d.I32()
	nFuncs := d.Count(minFuncBytes)
	if err := d.Err(); err != nil {
		return nil, err
	}
	p := ir.NewProgram(memWords)
	p.Entry = int(entry)
	for fi := 0; fi < nFuncs; fi++ {
		name := readString(d)
		params, numRegs := d.I32(), d.I32()
		nBlocks := d.Count(minBlockBytes)
		f := &ir.Func{Name: name, Params: int(params), NumRegs: int(numRegs)}
		for bi := 0; bi < nBlocks; bi++ {
			succs, err := readInts(d)
			if err != nil {
				return nil, err
			}
			b := &ir.Block{ID: bi, Succs: succs}
			nStmts := d.Count(minStmtBytes)
			for si := 0; si < nStmts; si++ {
				b.Stmts = append(b.Stmts, loadStmt(d))
			}
			f.Blocks = append(f.Blocks, b)
		}
		if err := d.Err(); err != nil {
			return nil, err
		}
		p.AddRawFunc(f)
	}
	if err := p.Finalize(); err != nil {
		return nil, fmt.Errorf("wetio: refinalize: %w", err)
	}
	return p, nil
}

func loadStmt(d *wire.Dec) *ir.Stmt {
	s := &ir.Stmt{Op: ir.Op(d.U8()), Dest: ir.Reg(d.I32())}
	s.A, s.B = loadOperand(d), loadOperand(d)
	s.Off = d.I64()
	if s.Op == ir.OpCall || s.Op == ir.OpSpawn {
		s.CalleeName = readString(d)
		for n := d.Count(minOperandBytes); n > 0; n-- {
			s.Args = append(s.Args, loadOperand(d))
		}
	}
	return s
}

// --- report ---

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

// --- primitives ---

// putString puts a length-prefixed string.
func putString(w *wire.Enc, s string) {
	w.U32(uint32(len(s)))
	w.B = append(w.B, s...)
}

// readString reads a length-prefixed string ("" once the input is short).
func readString(d *wire.Dec) string {
	return string(d.Bytes(d.Count(1)))
}

// putInts puts a length-prefixed int32 slice.
func putInts(w *wire.Enc, s []int) {
	w.U32(uint32(len(s)))
	for _, v := range s {
		w.I32(int32(v))
	}
}

// readInts reads a length-prefixed int32 slice (nil when empty).
func readInts(d *wire.Dec) ([]int, error) {
	n := d.Count(4)
	if n == 0 {
		return nil, d.Err()
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.I32())
	}
	return out, nil
}
