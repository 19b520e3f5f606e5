package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"wet/internal/cliutil"
)

// TestRun pins wetprof's exit code and the first line it writes to each
// stream, for each command line. It runs from the repository root, so the
// program path prints as given.
func TestRun(t *testing.T) {
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir("../.."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(dir)
	for _, c := range []struct {
		args   []string
		code   int
		stdout string // first line of stdout, "" for none
		stderr string // first line of stderr, "" for none
	}{
		{[]string{"testdata/collatz.wir"}, cliutil.ExitOK,
			"program      testdata/collatz.wir (2 funcs, 26 statements)", ""},
		{nil, cliutil.ExitUsage, "", "usage: wetprof [flags] program.wir"},
		{[]string{"-epoch", "4294967296", "testdata/collatz.wir"}, cliutil.ExitUsage,
			"", `invalid value "4294967296" for flag -epoch: value out of range`},
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
