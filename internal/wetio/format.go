package wetio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"wet/internal/wire"
)

// WET format v3 framing: after the 8-byte preamble (magic, version), the
// file is a sequence of self-describing sections
//
//	tag(u8) payloadLen(u32 LE) payload[payloadLen] crc32c(u32 LE)
//
// where the CRC32-C covers tag, length, and payload. Every logical unit —
// header, program, size report, each node record, each edge record — is its
// own section, closed by an empty end-marker section. The framing lets Load
// (a) bound every allocation by the bytes actually present, (b) attribute
// corruption to the section containing it, and (c) skip damaged node/edge
// records in salvage mode while keeping the rest of the file.
const (
	secHeader  = uint8(1) // raw stats, time, first/last node, node+edge counts
	secProgram = uint8(2) // IR program
	secReport  = uint8(3) // size report
	secNode    = uint8(4) // one node record
	secEdge    = uint8(5) // one edge record
	secEnd     = uint8(6) // empty end marker
	secConc    = uint8(7) // concurrency streams (optional; multi-threaded runs only)
	// secFidelity carries the byte-budgeted freeze's fidelity report
	// (optional; present only when the freeze degraded — a budget at or
	// above the lossless floor writes no section, keeping the container
	// byte-identical to an unbudgeted save). It sits between the report
	// section and the first node so loaders know which node/edge records
	// carry placeholder streams before parsing them.
	secFidelity = uint8(8)
)

// lastSecTag is the highest recognized section tag (framing-recovery bound).
const lastSecTag = secFidelity

// secRank orders the section kinds as a strict load requires them: header,
// program, report, fidelity, node records, edge records, conc, end.
var secRank = [lastSecTag + 1]uint8{secHeader: 0, secProgram: 1, secReport: 2, secFidelity: 3,
	secNode: 4, secEdge: 5, secConc: 6, secEnd: 7}

// maxSectionLen bounds a single section's declared payload size. It is a
// framing-sanity limit, not an allocation bound: a payload is a view of the
// bytes already read, so a lying length field allocates nothing.
const maxSectionLen = 1 << 30

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func sectionName(tag uint8) string {
	switch tag {
	case secHeader:
		return "header"
	case secProgram:
		return "program"
	case secReport:
		return "report"
	case secNode:
		return "node"
	case secEdge:
		return "edge"
	case secEnd:
		return "end"
	case secConc:
		return "conc"
	case secFidelity:
		return "fidelity"
	}
	return fmt.Sprintf("unknown(%d)", tag)
}

// FormatError reports a structural or integrity failure at a specific
// location of a WET file.
type FormatError struct {
	// Section names the logical unit containing the failure ("header",
	// "program", "node 12", "edge 480", ...).
	Section string
	// Offset is the file offset of the failing section's frame (0 when the
	// failure precedes any framing, e.g. a bad magic number).
	Offset int64
	// Cause is the underlying error.
	Cause error
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("wetio: %s section at offset %d: %v", e.Section, e.Offset, e.Cause)
}

func (e *FormatError) Unwrap() error { return e.Cause }

// SalvageReport describes what LoadOptions.Salvage managed to recover.
type SalvageReport struct {
	Version int `json:"version"`
	// SectionsRead counts sections whose CRC validated and that parsed.
	SectionsRead int `json:"sections_read"`
	// SectionsDropped counts sections that failed their CRC, failed to
	// parse, or were structurally inconsistent and were skipped.
	SectionsDropped int `json:"sections_dropped"`
	// BytesSkipped counts payload bytes of dropped sections plus any
	// unframeable tail of the file.
	BytesSkipped int64 `json:"bytes_skipped"`
	// Truncated is set when the file ended before its end marker.
	Truncated bool `json:"truncated"`

	NodesLoaded  int `json:"nodes_loaded"`
	NodesDropped int `json:"nodes_dropped"`
	EdgesLoaded  int `json:"edges_loaded"`
	EdgesDropped int `json:"edges_dropped"`

	// Adjustments lists the cross-reference repairs applied to keep the
	// loaded prefix internally consistent (clamped control-flow successor
	// lists, remapped first/last pointers, dropped shared-label edges).
	Adjustments []string `json:"adjustments,omitempty"`
}

// Clean reports whether the file loaded without any loss.
func (r *SalvageReport) Clean() bool {
	return r.SectionsDropped == 0 && r.BytesSkipped == 0 && !r.Truncated &&
		r.NodesDropped == 0 && r.EdgesDropped == 0 && len(r.Adjustments) == 0
}

func (r *SalvageReport) String() string {
	if r.Clean() {
		return fmt.Sprintf("wetio: v%d file intact: %d sections, %d nodes, %d edges",
			r.Version, r.SectionsRead, r.NodesLoaded, r.EdgesLoaded)
	}
	s := fmt.Sprintf("wetio: v%d salvage: %d sections read, %d dropped, %d bytes skipped; nodes %d/%d, edges %d/%d",
		r.Version, r.SectionsRead, r.SectionsDropped, r.BytesSkipped,
		r.NodesLoaded, r.NodesLoaded+r.NodesDropped,
		r.EdgesLoaded, r.EdgesLoaded+r.EdgesDropped)
	if r.Truncated {
		s += "; file truncated"
	}
	for _, a := range r.Adjustments {
		s += "\n  " + a
	}
	return s
}

// section is one scanned frame.
type section struct {
	tag     uint8
	offset  int64  // file offset of the frame's tag byte
	payload []byte // a view of the file bytes
	crcOK   bool
}

func (s *section) name() string { return sectionName(s.tag) }

// tornChunk is the grain at which a payload cut short by the end of the file
// counts towards the skipped tail: whole chunks of it that are present, not
// the odd bytes after them (SalvageReport.BytesSkipped has always been
// reported at this grain).
const tornChunk = 1 << 20

// scanSections frames file (the whole container, preamble included) until
// the end marker, the end of the bytes, or a loss of framing. CRCs are
// verified here — before any payload is parsed — so a corrupt file is
// rejected at CRC cost rather than parse cost. strict makes the scan stop at
// the first bad section (its caller returns a FormatError immediately);
// otherwise the scan keeps framing past damaged sections as long as tags
// remain recognizable, so salvage can use the intact remainder. tailSkipped
// reports unframeable bytes at the point the scan gave up; sawEnd reports
// whether the end marker was reached.
func scanSections(file []byte, strict bool) (secs []section, tailSkipped int64, sawEnd bool, err error) {
	const hdr = 5
	// Hop the length fields once to size secs: at most one entry per nine
	// bytes of file.
	n := 0
	for off := 8; len(file)-off >= hdr; n++ {
		off += hdr + int(binary.LittleEndian.Uint32(file[off+1:])) + 4
	}
	secs = make([]section, 0, n)
	for off := 8; ; {
		rest := file[off:]
		if len(rest) < hdr {
			return secs, int64(len(rest)), false, nil // truncated between sections or inside a frame header
		}
		tag := rest[0]
		plen := int(binary.LittleEndian.Uint32(rest[1:]))
		if tag < secHeader || tag > lastSecTag || plen > maxSectionLen {
			// Framing lost: an unrecognizable tag or absurd length means the
			// previous length field cannot be trusted to find the next frame.
			return secs, int64(len(rest)), false, nil
		}
		switch have := len(rest) - hdr; {
		case have < plen:
			return secs, hdr + int64(have&^(tornChunk-1)), false, nil
		case have < plen+4:
			return secs, int64(hdr + plen), false, nil
		}
		sum := crc32.Checksum(rest[:hdr+plen], crcTable)
		sec := section{tag: tag, offset: int64(off), payload: rest[hdr : hdr+plen : hdr+plen],
			crcOK: sum == binary.LittleEndian.Uint32(rest[hdr+plen:])}
		off += hdr + plen + 4
		secs = append(secs, sec)
		if strict && !sec.crcOK {
			return secs, 0, false, &FormatError{Section: sec.name(), Offset: sec.offset,
				Cause: fmt.Errorf("checksum mismatch")}
		}
		if sec.tag == secEnd && sec.crcOK {
			return secs, 0, true, nil
		}
	}
}

// walkSections frames the bytes after the preamble as a non-strict
// scanSections does, but from a reader and without retaining a payload: each
// section's bytes stream through one reusable chunk buffer into the CRC, so
// the walk allocates a constant amount regardless of file size. Verify uses
// it — an integrity walk needs section identities and checksums, not
// payloads. tailSkipped and sawEnd mirror scanSections'; err is a read error
// other than the file ending (see readFault).
func walkSections(r io.Reader, visit func(tag uint8, offset int64, plen int, crcOK bool)) (tailSkipped int64, sawEnd bool, err error) {
	off := int64(8) // preamble consumed by the caller
	var hdr [5]byte
	buf := make([]byte, 1<<16)
	for {
		n, herr := io.ReadFull(r, hdr[:])
		if herr != nil {
			return int64(n), false, readFault(herr) // truncated between sections or inside a frame header
		}
		tag := hdr[0]
		plen := binary.LittleEndian.Uint32(hdr[1:])
		known := tag >= secHeader && tag <= lastSecTag
		if !known || plen > maxSectionLen {
			n, cerr := io.Copy(io.Discard, r)
			return int64(len(hdr)) + n, false, readFault(cerr)
		}
		sum := crc32.Checksum(hdr[:], crcTable)
		read := 0
		for read < int(plen) {
			c := min(int(plen)-read, len(buf))
			m, rerr := io.ReadFull(r, buf[:c])
			sum = crc32.Update(sum, crcTable, buf[:m])
			read += m
			if rerr != nil {
				return int64(len(hdr) + read), false, readFault(rerr)
			}
		}
		var crcBuf [4]byte
		if _, cerr := io.ReadFull(r, crcBuf[:]); cerr != nil {
			return int64(len(hdr) + read), false, readFault(cerr)
		}
		crcOK := sum == binary.LittleEndian.Uint32(crcBuf[:])
		visit(tag, off, int(plen), crcOK)
		off += int64(len(hdr)) + int64(plen) + 4
		if tag == secEnd && crcOK {
			return 0, true, nil
		}
	}
}

// sectionWriter frames sections back to back into one buffer, the open
// section's payload appended through the embedded Enc behind a header emit
// fills in, and writes the buffer out whenever it holds flushAt bytes: the
// destination sees few large writes, each ending on a section boundary.
type sectionWriter struct {
	w io.Writer
	wire.Enc
	start int // offset in B of the open section's frame header
}

const (
	frameHdr = 5 // tag and payload length
	flushAt  = 1 << 16
)

// newSectionWriter returns a writer whose first write starts with preamble.
func newSectionWriter(w io.Writer, preamble []byte) *sectionWriter {
	sw := &sectionWriter{w: w, Enc: wire.Enc{B: make([]byte, 0, flushAt+flushAt/2)}}
	sw.Raw(preamble)
	sw.open()
	return sw
}

// open starts the next section.
func (sw *sectionWriter) open() {
	sw.start = len(sw.B)
	sw.Zeros(frameHdr)
}

// Write implements io.Writer over the open section's payload.
func (sw *sectionWriter) Write(p []byte) (int, error) {
	sw.Raw(p)
	return len(p), nil
}

// emit frames the open section as one tag-length-payload-CRC section and
// opens the next.
func (sw *sectionWriter) emit(tag uint8) error {
	f := sw.B[sw.start:]
	f[0] = tag
	binary.LittleEndian.PutUint32(f[1:], uint32(len(f)-frameHdr))
	sw.U32(crc32.Checksum(f, crcTable))
	if len(sw.B) >= flushAt {
		if _, err := sw.w.Write(sw.B); err != nil {
			return err
		}
		sw.B = sw.B[:0]
	}
	sw.open()
	return nil
}

// close writes out every section emitted and not yet written.
func (sw *sectionWriter) close() error {
	_, err := sw.w.Write(sw.B[:sw.start])
	sw.B = sw.B[:0]
	sw.open()
	return err
}
