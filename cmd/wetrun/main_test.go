package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"wet/internal/cliutil"
)

// TestRun pins wetrun's exit code, the first line it writes to each stream
// and, where given, one line its stdout must hold, for each command line.
func TestRun(t *testing.T) {
	const (
		liLine   = "benchmark    li (130.li — bytecode interpretation (lisp interpreter))"
		mcfLine  = "benchmark    mcf (181.mcf — network-simplex-like arc relaxation, pointer chasing)"
		concLine = "benchmark    li-conc-racy (two bytecode workers bump a shared allocation counter without a lock)"
	)
	saved := filepath.Join(t.TempDir(), "mcfb.wet")
	for _, c := range []struct {
		args   []string
		code   int
		stdout string // first line of stdout, "" for none
		stderr string // first line of stderr, "" for none
		holds  string // a line stdout must hold, "" for any
	}{
		{[]string{"-bench", "li", "-stmts", "20000", "-ir"}, cliutil.ExitOK,
			"func main(params=0 regs=21):", "", ""},
		{[]string{"-budget", "nonsense"}, cliutil.ExitUsage,
			"", `wetrun: bad byte size "nonsense"`, ""},
		// A concurrent run is frozen with the same epoch size and budget.
		{[]string{"-conc", "-bench", "li-conc-racy", "-stmts", "20000", "-epoch", "256"}, cliutil.ExitOK,
			concLine, "", "epochs       4 sealed at 256 timestamps each"},
		{[]string{"-conc", "-bench", "li-conc-racy", "-stmts", "20000", "-budget", "50000"}, cliutil.ExitOK,
			concLine, "", "byte budget 50000 B: lossless floor 69444 B, achieved 46172 B"},
		{[]string{"-bench", "li", "-stmts", "20000"}, cliutil.ExitOK,
			liLine, "", ""},
		{[]string{"-bench", "li", "-stmts", "20000", "-epoch", "4294967296"}, cliutil.ExitUsage,
			"", `invalid value "4294967296" for flag -epoch: value out of range`, ""},
		{[]string{"-bench", "li", "-stmts", "20000", "-epoch", "4294967295"}, cliutil.ExitOK,
			liLine, "", ""},
		{[]string{"-bench", "li", "-stmts", "20000", "-certify"}, cliutil.ExitOK,
			"certified: trace is semantically consistent with its program", "", ""},
		{[]string{"-bench", "mcf", "-stmts", "30000", "-budget", "60KiB"}, cliutil.ExitOK,
			mcfLine, "", "byte budget 61440 B: lossless floor 375180 B, achieved 61166 B"},
		{[]string{"-bench", "mcf", "-stmts", "30000", "-budget", "36KiB"}, cliutil.ExitError,
			"", "wetrun: core: byte budget 36864 B unreachable: lossless floor 375180 B, full degradation ladder still 37892 B", ""},
		// A budget that drops dependence edges: the verifier certifies what
		// the trace kept.
		{[]string{"-bench", "mcf", "-stmts", "30000", "-budget", "60KiB", "-certify", "-o", saved}, cliutil.ExitOK,
			"certified: trace is semantically consistent with its program", "", "  dropped: 12 dependence edges"},
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
		if c.holds != "" && !strings.Contains("\n"+stdout.String(), "\n"+c.holds+"\n") {
			t.Errorf("%s: stdout holds no line %q", what, c.holds)
		}
	}
}
