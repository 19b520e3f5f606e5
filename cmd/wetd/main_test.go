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

// corruptLi writes li, recorded in epochs, to a file in dir with one byte
// flipped in the middle, and returns its path.
func corruptLi(t *testing.T, dir string) string {
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
	data[len(data)/2] ^= 0x40
	path := filepath.Join(dir, "flipped.wet")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRun pins wetd's exit code and the first line it writes for each
// command line, up to serving a built corpus until -timeout.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	flipped, missing := corruptLi(t, dir), filepath.Join(dir, "missing.wet")
	for _, c := range []struct {
		args   []string
		code   int
		stdout string // first line of stdout, "" for none
		stderr string // first line of stderr, "" for none
	}{
		{[]string{"-nosuch"}, cliutil.ExitUsage,
			"", "flag provided but not defined: -nosuch"},
		{[]string{"-budget", "lots", "-bench", "li"}, cliutil.ExitUsage,
			"", `wetd: bad byte size "lots"`},
		{[]string{}, cliutil.ExitUsage,
			"", "wetd: no corpus: pass .wet files or -bench names"},
		{[]string{missing}, cliutil.ExitError,
			"", "wetd: " + missing + ": corpus: open " + missing + ": no such file or directory"},
		{[]string{flipped}, cliutil.ExitIntegrity,
			"", "wetd: " + flipped + `: corpus: open "flipped": wetio: node section at offset 69756: checksum mismatch`},
		{[]string{"-bench", "nosuch"}, cliutil.ExitError,
			"", `wetd: workload: unknown benchmark "nosuch" (have go gcc li gzip mcf parser vortex bzip2 twolf)`},
		{[]string{"-bench", "li", "-listen", "127.0.0.1:0", "-timeout", "300ms"}, cliutil.ExitCancelled,
			"wetd: built and loaded workload li", "wetd: shut down: cliutil: -timeout 300ms elapsed: context deadline exceeded"},
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
			if first, _, _ := strings.Cut(out.got, "\n"); first != out.want {
				t.Errorf("%s: first %s line %q, want %q", what, out.name, first, out.want)
			}
		}
	}
}
