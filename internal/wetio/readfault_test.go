package wetio

// A read error is not file damage: only io.EOF and io.ErrUnexpectedEOF mean
// the file ended. Anything else the source reports — a device fault, an
// injected ENOSPC — must fail the load (strict and salvage alike) and the
// verify walk with that error unwrappable, never as a *FormatError and never
// as a salvaged "truncated" prefix of a file that is in fact intact.

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"wet/internal/faultpoint"
)

// faultyReader yields data[:k] and then fails with err.
type faultyReader struct {
	data []byte
	k    int
	err  error
	off  int
}

func (f *faultyReader) Read(p []byte) (int, error) {
	if f.off >= f.k {
		return 0, f.err
	}
	n := copy(p, f.data[f.off:f.k])
	f.off += n
	return n, nil
}

// sizedFaultyReader additionally knows its length, which sends the load down
// the exactly-sized read instead of the growing one.
type sizedFaultyReader struct{ *faultyReader }

func (s sizedFaultyReader) Len() int { return len(s.data) - s.off }

// readFaultFixtures returns one container per format with the offsets a
// reader fails at: inside the preamble, inside a frame header, inside a
// payload, inside a CRC and between two sections (for the unframed v2 body,
// a spread of offsets).
type readFaultFixture struct {
	data []byte
	ks   []int
}

func readFaultFixtures(t *testing.T) map[string]readFaultFixture {
	t.Helper()
	out := map[string]readFaultFixture{}
	for name, data := range map[string][]byte{"v3": savedWET(t, "li"), "v4": savedStreamedWET(t, "li")} {
		bounds := sectionBoundaries(t, data)
		mid := len(bounds) / 2
		frame, next := int(bounds[mid]), int(bounds[mid+1])
		if next-frame < 9+4 {
			t.Fatalf("%s: section at %d too small to fail inside", name, frame)
		}
		out[name] = readFaultFixture{data, []int{4, frame, frame + 2, frame + 5 + (next-frame-9)/2, next - 2}}
	}
	v2, err := os.ReadFile(filepath.Join("testdata", "li_v2.wet"))
	if err != nil {
		t.Fatal(err)
	}
	out["v2"] = readFaultFixture{v2, []int{4, 8, len(v2) / 3, len(v2) / 2, len(v2) - 1}}
	return out
}

func TestReadErrorIsNotTruncation(t *testing.T) {
	cause := errors.New("EIO: input/output error")
	check := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, cause) {
			t.Fatalf("%s: returned %v, want the read error", what, err)
		}
		if errors.As(err, new(*FormatError)) {
			t.Fatalf("%s: the read error was reported as file damage: %v", what, err)
		}
	}
	for name, fx := range readFaultFixtures(t) {
		for _, k := range fx.ks {
			for _, salvage := range []bool{false, true} {
				for _, sized := range []bool{false, true} {
					var r io.Reader = &faultyReader{data: fx.data, k: k, err: cause}
					if sized {
						r = sizedFaultyReader{r.(*faultyReader)}
					}
					w, rep, err := LoadWithReport(r, LoadOptions{Salvage: salvage})
					if w != nil || rep != nil {
						t.Fatalf("%s k=%d salvage=%v: a failed read produced a trace (%v)", name, k, salvage, rep)
					}
					check(name, err)
				}
			}
			if name != "v2" {
				_, err := Verify(&faultyReader{data: fx.data, k: k, err: cause})
				check(name+" verify", err)
			}
		}
	}
}

// sizedChunkReader is a source of known length that returns at most n bytes
// per Read.
type sizedChunkReader struct {
	*bytes.Reader
	n int
}

func (s *sizedChunkReader) Read(p []byte) (int, error) {
	return s.Reader.Read(p[:min(len(p), s.n)])
}

// TestLoadReadFailpoint: wetio.load.read with a non-short action surfaces the
// injected error itself in both modes; with the short action it still
// presents as a clean truncation, which strict rejects as a *FormatError and
// salvage loads a prefix of.
func TestLoadReadFailpoint(t *testing.T) {
	defer faultpoint.DisarmAll()
	data := savedStreamedWET(t, "li")
	// The source knows its length and hands it over in eight reads; the
	// sixth one fails.
	src := func() io.Reader { return &sizedChunkReader{bytes.NewReader(data), len(data)/8 + 1} }
	arm := func(action string) {
		t.Helper()
		if err := faultpoint.Arm("wetio.load.read", faultpoint.Spec{Action: action, After: 6}); err != nil {
			t.Fatal(err)
		}
	}
	for _, salvage := range []bool{false, true} {
		arm(faultpoint.ActENOSPC)
		w, _, err := LoadWithReport(src(), LoadOptions{Salvage: salvage})
		var fe *faultpoint.Error
		if w != nil || !errors.As(err, &fe) || errors.As(err, new(*FormatError)) {
			t.Fatalf("salvage=%v: injected ENOSPC returned (%v, %v), want the *faultpoint.Error and no trace", salvage, w != nil, err)
		}
		arm(faultpoint.ActENOSPC)
		if _, err := Verify(src()); !errors.As(err, &fe) {
			t.Fatalf("verify: injected ENOSPC returned %v, want the *faultpoint.Error", err)
		}
	}
	arm(faultpoint.ActShort)
	if _, _, err := LoadWithReport(src(), LoadOptions{}); !errors.As(err, new(*FormatError)) || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("strict load of a short read returned %v, want a truncation *FormatError", err)
	}
	arm(faultpoint.ActShort)
	w, rep, err := LoadWithReport(src(), LoadOptions{Salvage: true})
	if err != nil || w == nil || !rep.Truncated {
		t.Fatalf("salvage of a short read returned (%v, %v), want a truncated prefix", rep, err)
	}
}
