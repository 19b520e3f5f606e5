package wetio

import (
	"bufio"
	"context"
	"fmt"
	"io"
)

// SectionStatus is one line of a Verify walk: a section's identity,
// location, size, and whether its checksum validated.
type SectionStatus struct {
	Section string `json:"section"`
	Offset  int64  `json:"offset"`
	Length  int    `json:"length"` // payload bytes
	CRCOK   bool   `json:"crc_ok"`
}

func (s SectionStatus) String() string {
	state := "ok"
	if !s.CRCOK {
		state = "CORRUPT"
	}
	return fmt.Sprintf("%-12s offset %8d  %8d bytes  crc %s", s.Section, s.Offset, s.Length, state)
}

// VerifyResult summarizes an integrity walk over a WET file.
type VerifyResult struct {
	Version  int             `json:"version"`
	Sections []SectionStatus `json:"sections"`
	// BadSections counts sections whose CRC failed.
	BadSections int `json:"bad_sections"`
	// TailSkipped is the unframeable byte count at the end of the file (0
	// for an intact file).
	TailSkipped int64 `json:"tail_skipped"`
	// Truncated is set when the end marker was never reached.
	Truncated bool `json:"truncated"`
}

// OK reports whether every section validated and the file is complete.
func (v *VerifyResult) OK() bool {
	return v.BadSections == 0 && v.TailSkipped == 0 && !v.Truncated
}

// Verify walks a WET file's sections, checking each CRC, without parsing —
// or retaining — any payload: section bytes stream through one fixed-size
// buffer into the checksum, so verifying a multi-gigabyte file costs O(1)
// memory. v2 files carry no checksums and return an error: they are
// unverifiable by construction.
func Verify(r io.Reader) (*VerifyResult, error) {
	return VerifyCtx(context.Background(), r)
}

// VerifyCtx is Verify with cooperative cancellation: the walk aborts within
// one buffer refill of the context dying and returns context.Cause.
func VerifyCtx(ctx context.Context, r io.Reader) (*VerifyResult, error) {
	ctx = orBackground(ctx)
	br := bufio.NewReaderSize(loadReader(ctx, r), 1<<16)
	var pre [8]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil {
		if ferr := readFault(err); ferr != nil {
			return nil, ctxCause(ctx, ferr)
		}
		return nil, &FormatError{Section: "preamble", Cause: err}
	}
	m, v := order.Uint32(pre[:]), order.Uint32(pre[4:])
	if m != magic {
		return nil, &FormatError{Section: "preamble", Cause: fmt.Errorf("bad magic %#x", m)}
	}
	switch v {
	case versionV2:
		return nil, fmt.Errorf("wetio: v2 files carry no checksums and cannot be verified; re-save to upgrade to v3")
	case version, versionV4:
	default:
		return nil, &FormatError{Section: "preamble", Cause: fmt.Errorf("unsupported version %d", v)}
	}
	res := &VerifyResult{Version: int(v)}
	nodeIdx, edgeIdx := 0, 0
	tail, sawEnd, err := walkSections(br, func(tag uint8, offset int64, plen int, crcOK bool) {
		name := sectionName(tag)
		switch tag {
		case secNode:
			name = fmt.Sprintf("node %d", nodeIdx)
			nodeIdx++
		case secEdge:
			name = fmt.Sprintf("edge %d", edgeIdx)
			edgeIdx++
		}
		res.Sections = append(res.Sections, SectionStatus{
			Section: name, Offset: offset, Length: plen, CRCOK: crcOK,
		})
		if !crcOK {
			res.BadSections++
		}
	})
	if err != nil {
		return nil, ctxCause(ctx, err)
	}
	res.TailSkipped, res.Truncated = tail, !sawEnd
	return res, nil
}
