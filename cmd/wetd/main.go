// Command wetd is the trace-query daemon: it loads a corpus of .wet files
// and serves them over HTTP/JSON with a segment-granular, byte-budgeted
// cache — many traces stay addressable while only the decoded state queries
// actually touch stays resident.
//
// Exit codes: 0 ok, 1 error, 2 usage, 3 a corpus file failed integrity
// checks, 5 cancelled (^C or -timeout).
//
// Usage:
//
//	wetd -listen :9120 li.wet gzip.wet mcf.wet
//	wetd -listen :9120 -budget 64MiB -workers 8 -queue 64 traces/*.wet
//	wetd -bench li,gzip,mcf -listen :9120       # build a demo corpus in-process
//
// Endpoints:
//
//	GET /healthz                         liveness
//	GET /metrics                         Prometheus text exposition
//	GET /v1/stats                        corpus + admission pool counters (JSON)
//	GET /v1/traces                       served traces and available queries
//	GET /v1/traces/{key}                 trace info (key, name, or key prefix)
//	GET /v1/traces/{key}/{query}?...     run a query; see /v1/traces for names
//
// ^C (or -timeout) shuts the daemon down gracefully: listeners close,
// in-flight queries finish, then the process exits with code 5 on timeout
// or 0 on a clean signal-free exit.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"wet"
	"wet/internal/cliutil"
	"wet/internal/corpus"
	"wet/internal/serve"
	"wet/internal/wetio"
	"wet/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its arguments and output streams; it returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wetd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", ":9120", "address to serve on")
	budget := fs.String("budget", "32MiB", "decoded segment cache budget (bytes; supports KiB/MiB/GiB suffixes; 0 = unlimited)")
	workers := fs.Int("workers", 0, "concurrent query executions (0 = 4)")
	queue := fs.Int("queue", 0, "queries allowed to wait for a worker before shedding (0 = 4x workers)")
	deadline := fs.Duration("deadline", 30*time.Second, "per-request deadline")
	bench := fs.String("bench", "", "comma-separated workload names to build and serve in-process (instead of .wet files)")
	timeout := fs.Duration("timeout", 0, "shut down after this duration (exit code 5); 0 = run until signalled")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return cliutil.ExitOK
		}
		return cliutil.ExitUsage
	}

	budgetBytes, err := cliutil.ParseBytes(*budget)
	if err != nil {
		fmt.Fprintf(stderr, "wetd: %v\n", err)
		return cliutil.ExitUsage
	}
	if fs.NArg() == 0 && *bench == "" {
		fmt.Fprintln(stderr, "wetd: no corpus: pass .wet files or -bench names")
		fs.Usage()
		return cliutil.ExitUsage
	}

	ctx, stop := cliutil.Context(*timeout)
	defer stop()

	c := corpus.New(budgetBytes)
	for _, path := range fs.Args() {
		e, err := c.AddFile("", path)
		if err != nil {
			fmt.Fprintf(stderr, "wetd: %s: %v\n", path, err)
			var fe *wetio.FormatError
			if errors.As(err, &fe) {
				return cliutil.ExitIntegrity
			}
			return cliutil.ExitError
		}
		fmt.Fprintf(stdout, "wetd: loaded %s as %s (%s, %d segments)\n", path, e.Name, e.Key[:12], e.Segs.Len())
	}
	for _, name := range splitList(*bench) {
		if err := addBench(c, name); err != nil {
			fmt.Fprintf(stderr, "wetd: %v\n", err)
			return cliutil.ExitError
		}
		fmt.Fprintf(stdout, "wetd: built and loaded workload %s\n", name)
	}

	s := serve.New(c, serve.Options{Workers: *workers, Queue: *queue, Deadline: *deadline})
	srv := &http.Server{Addr: *listen, Handler: s.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(stdout, "wetd: serving %d traces on %s (budget %s)\n", len(c.Entries()), *listen, *budget)

	select {
	case <-ctx.Done():
		shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shctx)
		if cliutil.IsCancelled(context.Cause(ctx)) {
			fmt.Fprintln(stderr, "wetd: shut down:", context.Cause(ctx))
			return cliutil.ExitCancelled
		}
		return cliutil.ExitOK
	case err := <-errc:
		fmt.Fprintf(stderr, "wetd: %v\n", err)
		return cliutil.ExitError
	}
}

// addBench builds the named workload in-process and registers it.
func addBench(c *corpus.Corpus, name string) error {
	wl, err := workload.ByName(name)
	if err != nil {
		return err
	}
	prog, in := wl.Build(1)
	tr, _, err := wet.Run(prog, wet.WithInputs(in...), wet.WithEpochTS(1<<8))
	if err != nil {
		return fmt.Errorf("build %s: %w", name, err)
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		return fmt.Errorf("save %s: %w", name, err)
	}
	_, err = c.Add(name, buf.Bytes())
	return err
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
