package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wet/internal/asm"
	"wet/internal/cliutil"
	"wet/internal/core"
	"wet/internal/interp"
	"wet/internal/wetio"
)

// savedCollatz builds testdata/collatz.wir in epochs of epochTS timestamps
// (0: one epoch), saves it to dir under name and returns the path.
func savedCollatz(t *testing.T, dir, name string, epochTS uint32) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "collatz.wir"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	st, err := interp.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	w, _, _, err := core.BuildStreaming(st, interp.Options{}, core.FreezeOptions{EpochTS: epochTS})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := wetio.SaveFile(path, w); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRun pins wetdiff's exit code for each command line, with the first
// line of stdout and a substring of stderr.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	one, epochs := savedCollatz(t, dir, "one.wet", 0), savedCollatz(t, dir, "epochs.wet", 64)
	data, err := os.ReadFile(one)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.wet")
	if err := os.WriteFile(cut, data[:500], 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args     []string
		code     int
		firstOut string // suffix of the first stdout line, "" for any
		errMatch string // a substring of stderr, "" for any
	}{
		{[]string{one, epochs}, cliutil.ExitOK, "(8 epochs)", ""},
		{[]string{one}, cliutil.ExitUsage, "", "usage: wetdiff"},
		{[]string{cut, epochs}, cliutil.ExitIntegrity, "", "truncated"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(c.args, &stdout, &stderr)
		what := strings.Join(c.args, " ")
		if code != c.code {
			t.Errorf("%s: exit %d, want %d (stderr %q)", what, code, c.code, stderr.String())
		}
		if first, _, _ := strings.Cut(stdout.String(), "\n"); !strings.HasSuffix(first, c.firstOut) {
			t.Errorf("%s: first stdout line %q, want it to end %q", what, first, c.firstOut)
		}
		if !strings.Contains(stderr.String(), c.errMatch) {
			t.Errorf("%s: stderr %q does not contain %q", what, stderr.String(), c.errMatch)
		}
	}
}
