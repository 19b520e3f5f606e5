package main

import (
	"bytes"
	"strings"
	"testing"

	"wet/internal/cliutil"
)

// TestRun pins wetrun's exit code and the first line it writes for each
// command line.
func TestRun(t *testing.T) {
	const liLine = "benchmark    li (130.li — bytecode interpretation (lisp interpreter))"
	for _, c := range []struct {
		args   []string
		code   int
		stdout string // first line of stdout, "" for none
		stderr string // first line of stderr, "" for none
	}{
		{[]string{"-bench", "li", "-stmts", "20000", "-ir"}, cliutil.ExitOK,
			"func main(params=0 regs=21):", ""},
		{[]string{"-budget", "nonsense"}, cliutil.ExitUsage,
			"", `wetrun: bad byte size "nonsense"`},
		{[]string{"-conc", "-bench", "li-conc-racy", "-budget", "1MiB"}, cliutil.ExitUsage,
			"", "wetrun: -budget is not supported with -conc"},
		{[]string{"-bench", "li", "-stmts", "20000"}, cliutil.ExitOK,
			liLine, ""},
		{[]string{"-bench", "li", "-stmts", "20000", "-certify"}, cliutil.ExitOK,
			"certified: trace is semantically consistent with its program", ""},
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
