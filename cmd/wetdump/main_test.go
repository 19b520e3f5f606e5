package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wet"
	"wet/internal/cliutil"
	"wet/internal/wetio"
)

// savedLi writes li to dir three ways and returns the paths: intact, cut in
// the middle of its last node record, and with one payload byte of that
// record flipped.
func savedLi(t *testing.T, dir string) (good, cut, flipped string) {
	t.Helper()
	wl, err := wet.WorkloadByName("li")
	if err != nil {
		t.Fatal(err)
	}
	prog, in := wl.Build(1)
	tr, _, err := wet.Run(prog, wet.WithInputs(in...))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	res, err := wetio.Verify(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var mid int64 // a payload byte of the last node record
	for _, s := range res.Sections {
		if strings.HasPrefix(s.Section, "node ") {
			mid = s.Offset + 5 + int64(s.Length)/2
		}
	}
	write := func(name string, data []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good, cut = write("li.wet", data), write("cut.wet", data[:mid])
	data[mid] ^= 0x40
	return good, cut, write("flipped.wet", data)
}

// TestRun pins wetdump's exit code for each command line, and the lines
// that say why: the salvage report on stderr, the verdict that ends a
// -verify walk, the slice written as DOT or the reason there is none.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	good, cut, flipped := savedLi(t, dir)
	dot := filepath.Join(dir, "slice.dot")
	for _, c := range []struct {
		args     []string
		code     int
		lastOut  string // last line of stdout, "" for any
		errMatch string // a substring of stderr, "" for any
	}{
		{[]string{good}, cliutil.ExitOK, "", ""},
		{[]string{cut}, cliutil.ExitIntegrity, "", "truncated"},
		{[]string{"-salvage", cut}, cliutil.ExitSalvaged, "", "salvage:"},
		{[]string{"-verify", flipped}, cliutil.ExitIntegrity, "FAILED: 1 bad sections", ""},
		{[]string{"-verify", good}, cliutil.ExitOK, "", ""},
		{[]string{"-slice-ts", "4000", "-dot", dot, good}, cliutil.ExitOK, "wrote " + dot, ""},
		{[]string{"-slice-ts", "999999", good}, cliutil.ExitError, "", "no def statement executed at ts 999999"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(c.args, &stdout, &stderr)
		what := strings.Join(c.args, " ")
		if code != c.code {
			t.Errorf("%s: exit %d, want %d (stderr %q)", what, code, c.code, stderr.String())
		}
		lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
		if last := lines[len(lines)-1]; c.lastOut != "" && last != c.lastOut {
			t.Errorf("%s: last stdout line %q, want %q", what, last, c.lastOut)
		}
		if !strings.Contains(stderr.String(), c.errMatch) {
			t.Errorf("%s: stderr %q does not contain %q", what, stderr.String(), c.errMatch)
		}
	}
}
