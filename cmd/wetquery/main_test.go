package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wet"
	"wet/internal/cliutil"
)

// savedLi writes li, recorded in epochs, to a file in dir and returns its
// path and a copy with one byte flipped in the middle.
func savedLi(t *testing.T, dir string) (good, flipped string) {
	t.Helper()
	wl, err := wet.WorkloadByName("li")
	if err != nil {
		t.Fatal(err)
	}
	prog, in := wl.Build(1)
	tr, _, err := wet.Run(prog, wet.WithInputs(in...), wet.WithEpochTS(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	good, flipped = filepath.Join(dir, "li.wet"), filepath.Join(dir, "flipped.wet")
	if err := os.WriteFile(good, data, 0o644); err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(flipped, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return good, flipped
}

// TestRun pins wetquery's exit code and the first line it writes for each
// command line; a line ending in "..." is pinned up to there (the rest
// carries a timing).
func TestRun(t *testing.T) {
	dir := t.TempDir()
	good, flipped := savedLi(t, dir)
	for _, c := range []struct {
		args   []string
		code   int
		stdout string // first line of stdout, "" for none
		stderr string // first line of stderr, "" for none
	}{
		{[]string{"-tier", "3"}, cliutil.ExitUsage,
			"", "wetquery: -tier 3: the tiers are 1 and 2"},
		{[]string{"-load", good, "-tier", "1"}, cliutil.ExitUsage,
			"", "wetquery: -tier 1 needs a fresh build: a loaded file keeps tier 2 only"},
		{[]string{"-load", flipped}, cliutil.ExitIntegrity,
			"", "wetquery: " + flipped + ": wetio: node section at offset 69756: checksum mismatch"},
		{[]string{"-load", good, "-query", "cftrace"}, cliutil.ExitOK,
			"control flow trace: 144586 statements (0.55 MB) in ...", ""},
		{[]string{"-load", good, "-to", "4294967296"}, cliutil.ExitUsage,
			"", `invalid value "4294967296" for flag -to: value out of range`},
		{[]string{"-bench", "li", "-stmts", "20000", "-tier", "1"}, cliutil.ExitOK,
			"control flow trace: 144586 statements (0.55 MB) in ...", "building WET for li..."},
	} {
		var stdout, stderr bytes.Buffer
		code := run(c.args, &stdout, &stderr)
		what := strings.Join(c.args, " ")
		if code != c.code {
			t.Errorf("%s: exit %d, want %d (stderr %q)", what, code, c.code, stderr.String())
		}
		for _, out := range []struct {
			name, got, want string
		}{{"stdout", stdout.String(), c.stdout}, {"stderr", stderr.String(), c.stderr}} {
			first, _, _ := strings.Cut(out.got, "\n")
			prefix, timed := strings.CutSuffix(out.want, "...")
			if first != out.want && !(timed && strings.HasPrefix(first, prefix)) {
				t.Errorf("%s: first %s line %q, want %q", what, out.name, first, out.want)
			}
		}
	}
}
