package wetio

// The error and byte contracts of the open path, checked at the points where
// the decoder meets them: what a short section reports, what a forged store
// reports eagerly and lazily, and that whatever a load keeps of the file's
// bytes (lazy and evictable streams keep views of them) saves back unchanged.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wet/internal/core"
	"wet/internal/faultpoint"
	"wet/internal/stream"
)

// withPayload rebuilds a framed file with section idx carrying payload under
// a fresh, valid CRC.
func withPayload(t *testing.T, data []byte, idx int, payload []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	sw := newSectionWriter(&out, data[:8])
	for i, s := range mustScan(t, data) {
		p := s.payload
		if i == idx {
			p = payload
		}
		sw.Write(p)
		if err := sw.emit(s.tag); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestShortSectionReportsUnexpectedEOF: a CRC-valid section whose payload
// stops short of what its record needs is a *FormatError naming the section
// and its frame offset, with io.ErrUnexpectedEOF as the cause — on every
// section kind, strict and (for the sections salvage cannot do without) in
// salvage mode; a short node or edge record is what salvage drops.
func TestShortSectionReportsUnexpectedEOF(t *testing.T) {
	for name, data := range map[string][]byte{"v3": savedWET(t, "li"), "v4": savedStreamedWET(t, "li")} {
		secs := mustScan(t, data)
		// One section of each kind: the last node and edge records (salvage
		// has a node prefix to keep), the first of everything else.
		pick := map[uint8]int{}
		names := map[int]string{}
		nodes, edges := 0, 0
		for i, s := range secs {
			switch s.tag {
			case secNode:
				pick[s.tag], names[i] = i, secName("node", nodes)
				nodes++
			case secEdge:
				pick[s.tag], names[i] = i, secName("edge", edges)
				edges++
			default:
				if _, ok := pick[s.tag]; !ok && len(s.payload) > 3 {
					pick[s.tag], names[i] = i, s.name()
				}
			}
		}
		for _, tag := range []uint8{secHeader, secProgram, secReport, secNode, secEdge} {
			i, ok := pick[tag]
			if !ok {
				t.Fatalf("%s: fixture has no %s section", name, sectionName(tag))
			}
			s, want := secs[i], names[i]
			short := withPayload(t, data, i, s.payload[:len(s.payload)-3])
			_, err := Load(bytes.NewReader(short), LoadOptions{})
			var fe *FormatError
			if !errors.As(err, &fe) || fe.Section != want || fe.Offset != s.offset || !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%s: short %s section at %d reported as %v", name, want, s.offset, err)
			}
			w, rep, err := LoadWithReport(bytes.NewReader(short), LoadOptions{Salvage: true})
			switch s.tag {
			case secHeader, secProgram:
				if !errors.As(err, &fe) || fe.Section != want || !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("%s: salvage of a short %s section reported %v", name, want, err)
				}
			case secNode, secEdge:
				if err != nil || w == nil || rep.SectionsDropped == 0 {
					t.Fatalf("%s: salvage of a short %s record returned (%v, %v), want the record dropped", name, want, rep, err)
				}
			}
		}
	}
}

// forgedLastN serialises a last-n stream of m zeros whose every BL entry is
// a hit on slot 1 of the size-2 table: structurally valid, but slot 0 holds
// the zero first, so the decode kernel must refuse it.
func forgedLastN(m int) []byte {
	var b bytes.Buffer
	le := func(vs ...any) {
		for _, v := range vs {
			binary.Write(&b, binary.LittleEndian, v)
		}
	}
	le(uint8(stream.KindLastN), uint8(0), uint32(m), uint32(2), uint32(1), uint32(0), uint32(0), uint64(0))
	le(uint32(2), uint32(0), uint32(0)) // the all-zero table
	le(uint64(0), uint32(0))            // empty FR store
	words := make([]uint64, (2*m+63)/64)
	for i := 0; i < 2*m; i++ {
		words[i>>6] |= 1 << (i & 63)
	}
	le(uint64(2*m), uint32(len(words)), words)
	return b.Bytes()
}

// TestForgedStoreTypedEagerAndLazy plants a structurally valid but
// non-canonical store in node 0's timestamps. An eager load refuses the file
// with a *FormatError naming the record and its frame; a lazy or segmented
// load succeeds (structure is all it checks) and the first touch fails with
// the bare *stream.DecodeError.
func TestForgedStoreTypedEagerAndLazy(t *testing.T) {
	w := buildFrozen(t, "li")
	scanned, _, err := stream.Scan(forgedLastN(w.Nodes[0].Execs))
	if err != nil {
		t.Fatalf("the forged store is meant to pass structural validation: %v", err)
	}
	w.Nodes[0].TSS = scanned // saves as the forged bytes
	var buf bytes.Buffer
	if err := Save(&buf, w); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	var node0 int64
	for _, s := range mustScan(t, data) {
		if s.tag == secNode {
			node0 = s.offset
			break
		}
	}

	_, err = Load(bytes.NewReader(data), LoadOptions{})
	var fe *FormatError
	if !errors.As(err, &fe) || fe.Section != "node 0" || fe.Offset != node0 {
		t.Fatalf("eager load of a forged store returned %v, want a *FormatError at node 0 (offset %d)", err, node0)
	}
	bare := func(what string, err error) {
		t.Helper()
		if _, ok := err.(*stream.DecodeError); !ok {
			t.Fatalf("%s: returned %T %v, want the bare *stream.DecodeError", what, err, err)
		}
	}
	for what, opts := range map[string]LoadOptions{"lazy": {Lazy: true}, "segments": {Segments: NewSegmentSource()}} {
		w2, err := Load(bytes.NewReader(data), opts)
		if err != nil {
			t.Fatalf("%s load of a forged store: %v", what, err)
		}
		bare(what+" first touch", stream.Force(w2.Nodes[0].TSS))
		bare(what+" second touch", stream.Force(w2.Nodes[0].TSS))
	}
}

func mustScan(t *testing.T, data []byte) []section {
	t.Helper()
	secs, _, _, err := scanSections(data, true)
	if err != nil {
		t.Fatal(err)
	}
	return secs
}

// TestResaveFixedPointAcrossOpenModes: Save → Load → Save reproduces the
// bytes for the committed fixtures and fresh v3/v4 containers, whether the
// load decoded every stream or deferred them, over a view of the file or as
// registered segments: a deferred stream saves the bytes it holds, so the
// stream.decode point, armed across the Save, must never be reached. A v2
// file has no v2 writer: its first save is the v3 form, the fixed point from
// then on.
func TestResaveFixedPointAcrossOpenModes(t *testing.T) {
	fixtures := map[string][]byte{"fresh_v3": savedWET(t, "li"), "fresh_v4": savedStreamedWET(t, "li")}
	for _, name := range []string{"li_v2.wet", "li_v3.wet"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		fixtures[name] = data
	}
	resave := func(what string, data []byte, opts LoadOptions) []byte {
		t.Helper()
		w, err := Load(bytes.NewReader(data), opts)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if err := faultpoint.Arm("stream.decode", faultpoint.Spec{Action: faultpoint.ActErr}); err != nil {
			t.Fatal(err)
		}
		defer faultpoint.DisarmAll()
		var out bytes.Buffer
		if err := Save(&out, w); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if n := faultpoint.Lookup("stream.decode").Fired(); n != 0 {
			t.Fatalf("%s: Save decoded %d streams, want 0", what, n)
		}
		return out.Bytes()
	}
	v2AsV3 := resave("li_v2.wet", fixtures["li_v2.wet"], LoadOptions{})
	fixtures["li_v2.wet resaved"] = v2AsV3
	for name, data := range fixtures {
		want := data
		if name == "li_v2.wet" {
			want = v2AsV3
		}
		for what, opts := range map[string]func() LoadOptions{
			"eager":    func() LoadOptions { return LoadOptions{} },
			"lazy":     func() LoadOptions { return LoadOptions{Lazy: true} },
			"segments": func() LoadOptions { return LoadOptions{Segments: NewSegmentSource()} },
		} {
			if got := resave(name+" "+what, data, opts()); !bytes.Equal(got, want) {
				t.Fatalf("%s: %s load then Save wrote %d bytes that differ from the %d-byte fixed point", name, what, len(got), len(want))
			}
		}
	}
}

// TestSalvageTruncationAccounting pins what a salvage load reports for a file
// cut inside its last edge record (every node and earlier edge loads, so the
// skipped bytes are the torn tail alone): nothing when the cut falls between
// two frames, the bytes of a torn frame header, the header of a frame whose
// payload is torn (a torn payload counts in whole MiB chunks, see tornChunk),
// header and payload of a frame torn inside its CRC.
func TestSalvageTruncationAccounting(t *testing.T) {
	for name, data := range map[string][]byte{"v3": savedWET(t, "li"), "v4": savedStreamedWET(t, "li")} {
		bounds := sectionBoundaries(t, data)
		frame, next := bounds[len(bounds)-3], bounds[len(bounds)-2] // the record before the end marker
		plen := next - frame - 9
		if plen < 2 {
			t.Fatalf("%s: last edge record too small to cut inside", name)
		}
		for _, c := range []struct {
			what      string
			cut, tail int64
		}{
			{"between frames", frame, 0},
			{"inside the frame header", frame + 3, 3},
			{"inside the payload", frame + 5 + plen/2, 5},
			{"inside the CRC", next - 2, 5 + plen},
		} {
			_, rep, err := LoadWithReport(bytes.NewReader(data[:c.cut]), LoadOptions{Salvage: true})
			if err != nil {
				t.Fatalf("%s cut %s: %v", name, c.what, err)
			}
			if !rep.Truncated || rep.BytesSkipped != c.tail || rep.SectionsDropped != 0 || rep.EdgesDropped != 1 {
				t.Fatalf("%s cut %s: truncated=%v skipped=%d dropped=%d edges dropped=%d, want true, %d, 0, 1",
					name, c.what, rep.Truncated, rep.BytesSkipped, rep.SectionsDropped, rep.EdgesDropped, c.tail)
			}
		}
	}
}

// TestStrictRefusesForgedShareRepresentative: a CRC-valid v3 file whose
// first sharer names an inferable edge as its representative is refused by
// a strict load with a *FormatError naming the sharer's record, and a
// salvage load drops that one edge and says so once. Accepting it would
// leave a sharer without labels, and a slice through it would panic.
func TestStrictRefusesForgedShareRepresentative(t *testing.T) {
	data := savedWET(t, "li")
	intact := mustLoad(t, data)
	sharer, inferable := -1, -1
	for i, e := range intact.Edges {
		if sharer < 0 && e.SharedWith >= 0 {
			sharer = i
		}
		if inferable < 0 && e.Inferable {
			inferable = i
		}
	}
	if sharer < 0 || inferable < 0 {
		t.Fatalf("fixture lacks a sharer (%d) or an inferable edge (%d)", sharer, inferable)
	}
	secs := mustScan(t, data)
	idx := edgeSection(secs, sharer)
	payload := bytes.Clone(secs[idx].payload)
	binary.LittleEndian.PutUint32(payload[27:], uint32(inferable)) // SharedWith
	forged := withPayload(t, data, idx, payload)

	_, err := Load(bytes.NewReader(forged), LoadOptions{})
	var fe *FormatError
	if !errors.As(err, &fe) || fe.Section != secName("edge", sharer) || fe.Offset != secs[idx].offset {
		t.Fatalf("strict load of edge %d sharing with inferable edge %d returned %v, want a *FormatError at edge %d (offset %d)",
			sharer, inferable, err, sharer, secs[idx].offset)
	}
	w, rep, err := LoadWithReport(bytes.NewReader(forged), LoadOptions{Salvage: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Edges) != len(intact.Edges)-1 || rep.EdgesDropped != 1 || len(rep.Adjustments) != 1 {
		t.Fatalf("salvage kept %d of %d edges, report: %s; want the one sharer dropped with one adjustment",
			len(w.Edges), len(intact.Edges), rep)
	}
}

// edgeSection returns the index in secs of edge record i's section.
func edgeSection(secs []section, i int) int {
	for si, s := range secs {
		if s.tag == secEdge {
			if i == 0 {
				return si
			}
			i--
		}
	}
	return -1
}

// TestRetiredDiagonalFormRefused: the diagonal edge form is retired. A
// CRC-valid record that sets it — the diagonal byte of a v3 owned edge or of
// a v3 sharer, or flag bit 1 of a v4 segment — is refused by a strict load
// with a *FormatError naming the record, and a salvage load drops that one
// record and loads the rest. Each forged edge is one no other edge shares
// labels with, so nothing else depends on it.
func TestRetiredDiagonalFormRefused(t *testing.T) {
	v3, v4 := savedWET(t, "li"), savedStreamedWET(t, "li")
	for _, c := range []struct {
		what  string
		data  []byte
		ok    func(e *core.Edge) bool
		at    int  // payload offset of the forged byte
		val   byte // its forged value
		cause string
	}{
		// Edge header: kind u8, five i32, count u32, inferable u8, then the
		// diagonal byte at 26; a v4 edge's first segment flags sit at 43,
		// after sharedWith i32, the segment count u32, epoch u32 and n u32.
		{"v3 owned edge", v3, func(e *core.Edge) bool { return !e.Inferable && e.SharedWith < 0 }, 26, 1, "diagonal"},
		{"v3 sharer", v3, func(e *core.Edge) bool { return e.SharedWith >= 0 }, 26, 1, "diagonal"},
		{"v4 segment", v4, func(e *core.Edge) bool {
			return len(e.Segs) > 0 && !e.Segs[0].Inferable && e.Segs[0].SharedWith < 0
		}, 43, 0x2, "invalid flags"},
	} {
		intact := mustLoad(t, c.data)
		shared := map[int]bool{}
		for _, e := range intact.Edges {
			shared[e.SharedWith] = true
			for _, sg := range e.Segs {
				shared[sg.SharedWith] = true
			}
		}
		edge := -1
		for i, e := range intact.Edges {
			if !shared[i] && c.ok(e) {
				edge = i
				break
			}
		}
		if edge < 0 {
			t.Fatalf("%s: the fixture has no such edge", c.what)
		}
		secs := mustScan(t, c.data)
		idx := edgeSection(secs, edge)
		payload := bytes.Clone(secs[idx].payload)
		if payload[c.at] != 0 {
			t.Fatalf("%s: edge %d payload byte %d is %#x, want 0", c.what, edge, c.at, payload[c.at])
		}
		payload[c.at] = c.val
		forged := withPayload(t, c.data, idx, payload)

		_, err := Load(bytes.NewReader(forged), LoadOptions{})
		var fe *FormatError
		if !errors.As(err, &fe) || fe.Section != secName("edge", edge) || fe.Offset != secs[idx].offset || !strings.Contains(err.Error(), c.cause) {
			t.Fatalf("%s: strict load returned %v, want a *FormatError at edge %d (offset %d) about %q",
				c.what, err, edge, secs[idx].offset, c.cause)
		}
		w, rep, err := LoadWithReport(bytes.NewReader(forged), LoadOptions{Salvage: true})
		if err != nil {
			t.Fatalf("%s: salvage: %v", c.what, err)
		}
		if len(w.Edges) != len(intact.Edges)-1 || rep.EdgesDropped != 1 || rep.SectionsDropped != 1 || len(w.Nodes) != len(intact.Nodes) {
			t.Fatalf("%s: salvage kept %d of %d edges and %d of %d nodes, report: %s; want edge %d's section dropped",
				c.what, len(w.Edges), len(intact.Edges), len(w.Nodes), len(intact.Nodes), rep, edge)
		}
	}
}
