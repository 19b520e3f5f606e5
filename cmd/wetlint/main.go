// Command wetlint checks WET artifacts and WET sources for semantic
// consistency.
//
// File mode (default) climbs the full verification ladder over each .wet
// file — bytes (per-section CRCs), structure (core.Validate), semantics
// (sanalysis.VerifyWET against the embedded program's static analysis) —
// and reports findings by rule id (CF001..LE001). Both single-epoch v3 and
// epoch-segmented v4 files climb the same ladder: the semantic rules run on
// the federated view, so every epoch's labels are certified.
//
// Source mode (-source) is a determinism lint over Go source trees built on
// the stdlib go/ast and go/types only: it flags map iteration in
// serialization/report paths (SRC001, exempting collect-then-sort loops
// whose body only appends), wall-clock or math/rand use in the
// deterministic trace kernel (SRC002, SRC003), and goroutine spawns in
// kernel code not routed through the bounded pool (SRC004, exempting
// wetlint:bounded-annotated worker loops).
//
// Race mode (-races) runs happens-before and lockset race detection over
// each file's concurrency streams (rules RC001..RC003) and reports every
// finding with its witness timestamp pair. Definite races (RC001, RC002)
// fail the lint; lockset-only candidates (RC003) are reported but do not.
// Single-threaded files — and files from before the concurrency streams
// existed — pass trivially.
//
// Exit codes: 0 clean, 1 error, 2 usage, 3 findings.
//
// Usage:
//
//	wetlint trace.wet other.wet
//	wetlint -json trace.wet
//	wetlint -races trace.wet
//	wetlint -source ./...
//	wetlint -source -json ./internal/wetio ./internal/core
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"wet/internal/cliutil"
	"wet/internal/core"
	"wet/internal/racecheck"
	"wet/internal/sanalysis"
	"wet/internal/wetio"
)

func main() {
	source := flag.Bool("source", false, "lint Go source trees for determinism hazards instead of verifying .wet files")
	races := flag.Bool("races", false, "run race detection over each file's concurrency streams instead of the verification ladder")
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	flag.Parse()
	if flag.NArg() == 0 || (*source && *races) {
		fmt.Fprintln(os.Stderr, "usage: wetlint [-json] trace.wet...  |  wetlint -races [-json] trace.wet...  |  wetlint -source [-json] ./...")
		os.Exit(cliutil.ExitUsage)
	}
	if *source {
		os.Exit(runSource(flag.Args(), *jsonOut))
	}
	if *races {
		os.Exit(runRaces(flag.Args(), *jsonOut))
	}
	os.Exit(runFiles(flag.Args(), *jsonOut))
}

// raceResult is one .wet file's race-detection outcome.
type raceResult struct {
	File           string           `json:"file"`
	OK             bool             `json:"ok"` // no definite race
	Error          string           `json:"error,omitempty"`
	Concurrent     bool             `json:"concurrent"`
	Threads        int              `json:"threads,omitempty"`
	SyncEvents     int              `json:"sync_events,omitempty"`
	SharedAccesses int              `json:"shared_accesses,omitempty"`
	Races          []racecheck.Race `json:"races,omitempty"`
}

func runRaces(paths []string, jsonOut bool) int {
	code := cliutil.ExitOK
	results := make([]raceResult, 0, len(paths))
	for _, path := range paths {
		r := raceResult{File: path}
		lc := cliutil.LoadWET(os.Stderr, "wetlint", path, wetio.LoadOptions{}, func(w *core.WET) int {
			rep, err := racecheck.Check(w, core.Tier2)
			if err != nil {
				r.Error = err.Error()
				return cliutil.ExitError
			}
			r.Concurrent = rep.Concurrent
			r.Threads = rep.Threads
			r.SyncEvents = rep.SyncEvents
			r.SharedAccesses = rep.SharedAccesses
			r.Races = rep.Races
			r.OK = !rep.Racy()
			return cliutil.ExitOK
		})
		if lc != cliutil.ExitOK {
			if code == cliutil.ExitOK {
				code = lc
			}
			if r.Error == "" {
				r.Error = "load failed"
			}
		} else if !r.OK {
			code = cliutil.ExitIntegrity
		}
		results = append(results, r)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(os.Stderr, "wetlint:", err)
			return cliutil.ExitError
		}
		return code
	}
	for _, r := range results {
		switch {
		case r.Error != "":
			fmt.Printf("%s: ERROR: %s\n", r.File, r.Error)
		case !r.Concurrent:
			fmt.Printf("%s: ok (single-threaded trace, no concurrency streams)\n", r.File)
		default:
			for _, rc := range r.Races {
				fmt.Printf("%s: %s — %s\n", r.File, rc, racecheck.RuleDoc[rc.Rule])
			}
			if r.OK {
				fmt.Printf("%s: ok (%d threads, %d sync events, %d shared accesses, %d lockset candidates)\n",
					r.File, r.Threads, r.SyncEvents, r.SharedAccesses, len(r.Races))
			} else {
				fmt.Printf("%s: RACY (%d findings over %d threads)\n", r.File, len(r.Races), r.Threads)
			}
		}
	}
	return code
}

// fileResult is one .wet file's verification outcome across all three
// levels; FailedLevel names the first level that failed.
type fileResult struct {
	File        string              `json:"file"`
	OK          bool                `json:"ok"`
	FailedLevel string              `json:"failed_level,omitempty"` // bytes | structure | semantics
	Error       string              `json:"error,omitempty"`
	Findings    []sanalysis.Finding `json:"findings,omitempty"`
	Skipped     string              `json:"skipped,omitempty"` // semantic level skipped (concurrent trace)
	Nodes       int                 `json:"nodes,omitempty"`
	Edges       int                 `json:"edges,omitempty"`
	Labels      int                 `json:"labels,omitempty"`
	Transitions int                 `json:"transitions,omitempty"`
}

func runFiles(paths []string, jsonOut bool) int {
	code := cliutil.ExitOK
	results := make([]fileResult, 0, len(paths))
	for _, path := range paths {
		r := lintFile(path)
		results = append(results, r)
		if !r.OK {
			code = cliutil.ExitIntegrity
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(os.Stderr, "wetlint:", err)
			return cliutil.ExitError
		}
		return code
	}
	for _, r := range results {
		switch {
		case r.OK && r.Skipped != "":
			fmt.Printf("%s: ok (bytes + structure; semantics skipped: %s)\n", r.File, r.Skipped)
		case r.OK:
			fmt.Printf("%s: ok (%d nodes, %d edges, %d labels, %d transitions certified)\n",
				r.File, r.Nodes, r.Edges, r.Labels, r.Transitions)
		case len(r.Findings) > 0:
			for _, f := range r.Findings {
				fmt.Printf("%s: %s\n", r.File, f)
			}
			fmt.Printf("%s: FAILED at %s level (%d findings)\n", r.File, r.FailedLevel, len(r.Findings))
		default:
			fmt.Printf("%s: FAILED at %s level: %s\n", r.File, r.FailedLevel, r.Error)
		}
	}
	return code
}

// lintFile runs the verification ladder over one file.
func lintFile(path string) fileResult {
	res := fileResult{File: path}
	f, err := os.Open(path)
	if err != nil {
		res.FailedLevel = "bytes"
		res.Error = err.Error()
		return res
	}
	defer f.Close()
	sr, err := wetio.VerifySemantic(f)
	if err != nil {
		res.FailedLevel = "bytes"
		res.Error = err.Error()
		return res
	}
	switch {
	case !sr.Bytes.OK():
		res.FailedLevel = "bytes"
		res.Error = fmt.Sprintf("%d bad sections (truncated=%v)", sr.Bytes.BadSections, sr.Bytes.Truncated)
	case sr.StructureErr != nil:
		res.FailedLevel = "structure"
		res.Error = sr.StructureErr.Error()
	case !sr.Semantic.OK():
		res.FailedLevel = "semantics"
		res.Findings = sr.Semantic.Findings
	default:
		res.OK = true
		res.Skipped = sr.Semantic.Skipped
		res.Nodes = sr.Semantic.Nodes
		res.Edges = sr.Semantic.Edges
		res.Labels = sr.Semantic.Labels
		res.Transitions = sr.Semantic.Transitions
	}
	return res
}

func runSource(args []string, jsonOut bool) int {
	dirs, err := expandDirs(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wetlint:", err)
		return cliutil.ExitError
	}
	findings, err := lintSource(dirs, defaultLintConfig)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wetlint:", err)
		return cliutil.ExitError
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []srcFinding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "wetlint:", err)
			return cliutil.ExitError
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s: %s: %s\n", f.Pos, f.Rule, f.Msg)
		}
		if len(findings) == 0 {
			fmt.Println("source: ok (no determinism hazards)")
		} else {
			fmt.Printf("source: %d findings\n", len(findings))
		}
	}
	if len(findings) > 0 {
		return cliutil.ExitIntegrity
	}
	return cliutil.ExitOK
}
