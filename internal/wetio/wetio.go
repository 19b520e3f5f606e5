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
// Format v4 (see record.go) reuses the v3 preamble and section framing
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

	"wet/internal/core"
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
	// Salvage makes Load of a damaged v3 or v4 file return the maximal
	// loadable prefix instead of failing: node records after the first
	// damaged one and individually damaged edge records are dropped, and
	// cross references are repaired (see SalvageReport). Files that lose
	// their header or program section are beyond salvage. v2 files predate
	// the framing and always load strictly.
	Salvage bool
	// VerifyStreams additionally walks every deserialized stream over its
	// full length (both directions, on a fresh cursor) so that a stream whose
	// entry stores are inconsistent despite a valid checksum is rejected at
	// load instead of panicking in a later query. VerifyStreams overrides
	// Lazy: certification requires the decode.
	VerifyStreams bool
	// Workers bounds the goroutines decoding node and edge sections in
	// parallel: 0 means GOMAXPROCS, 1 decodes serially. Assembly is
	// deterministic — which records survive a salvage load is decided
	// serially in file order, so the loaded WET, its SalvageReport and any
	// error reported are identical at every width, strict or salvage.
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

// deferred reports whether the load scans its predictor-backed streams and
// leaves their decode to the first touch: the one predicate behind both Lazy
// and Segments.
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
