// Package cliutil holds the file-opening conventions shared by the CLIs
// that read .wet files: the -salvage escape hatch and the typed exit codes
// scripts can dispatch on.
package cliutil

import (
	"errors"
	"fmt"
	"io"
	"os"

	"wet/internal/core"
	"wet/internal/wetio"
)

// Typed exit codes for the .wet-reading commands.
const (
	ExitOK        = 0 // success
	ExitError     = 1 // any non-integrity failure
	ExitUsage     = 2 // bad command line
	ExitIntegrity = 3 // file failed structural/checksum validation
	ExitSalvaged  = 4 // loaded with data loss under -salvage
)

// LoadWET opens and loads one WET file, reporting failures on stderr.
// Integrity failures (*wetio.FormatError) exit with ExitIntegrity; with
// salvage enabled, a lossy load prints the salvage report and exits
// ExitSalvaged only after run() completes — the caller's queries still run
// on the recovered prefix. run is invoked with the loaded WET; its return value
// becomes the exit code unless salvage loss raises it.
func LoadWET(stderr io.Writer, cmd, path string, opts wetio.LoadOptions, run func(*core.WET) int) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", cmd, err)
		return ExitError
	}
	w, rep, err := wetio.LoadWithReport(f, opts)
	f.Close()
	if err != nil {
		fmt.Fprintf(stderr, "%s: %s: %v\n", cmd, path, err)
		// A cancelled load (LoadOptions.Ctx) is reported as cancellation,
		// never as an integrity failure — the file may be fine.
		if IsCancelled(err) {
			return ExitCancelled
		}
		var fe *wetio.FormatError
		if errors.As(err, &fe) {
			return ExitIntegrity
		}
		return ExitError
	}
	lossy := rep != nil && !rep.Clean()
	if lossy {
		fmt.Fprintf(stderr, "%s: %s: %s\n", cmd, path, rep)
	}
	code := run(w)
	if code == ExitOK && lossy {
		return ExitSalvaged
	}
	return code
}
