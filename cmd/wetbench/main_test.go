package main

import (
	"bytes"
	"strings"
	"testing"

	"wet/internal/cliutil"
)

// TestRun pins wetbench's exit code, the first line it writes to each
// stream, and a line stdout must hold, for each command line.
func TestRun(t *testing.T) {
	table1 := []string{"-q", "-table", "1", "-workloads", "li", "-stmts", "20000"}
	for _, c := range []struct {
		args   []string
		code   int
		stdout string // first line of stdout, "" for none
		stderr string // first line of stderr, "" for none
		line   string // a whole line stdout must hold, "" for none
	}{
		{table1, cliutil.ExitOK, "Table 1. WET sizes.", "", ""},
		{append(table1, "-ablations"), cliutil.ExitOK, "Table 1. WET sizes.", "",
			"aggressive         388.15        50.54           17"},
		{[]string{"-nosuch"}, cliutil.ExitUsage, "", "flag provided but not defined: -nosuch", ""},
		{[]string{"-q", "-table", "1", "-workloads", "nosuch", "-stmts", "20000"}, cliutil.ExitError, "",
			`wetbench: workload: unknown benchmark "nosuch" (have go gcc li gzip mcf parser vortex bzip2 twolf)`, ""},
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
		if c.line != "" && !strings.Contains("\n"+stdout.String(), "\n"+c.line+"\n") {
			t.Errorf("%s: stdout lacks the line %q:\n%s", what, c.line, stdout.String())
		}
	}
}
