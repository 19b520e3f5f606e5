package sanalysis

import (
	"fmt"
	"strings"

	"wet/internal/core"
)

// Certify verifies the WET semantically and renders any findings as one
// error. Frozen WETs are certified through their tier-2 streams (always
// present after Freeze, and all a streamed build keeps); unfrozen ones
// through the tier-1 slices.
func Certify(w *core.WET) error {
	tier := core.Tier1
	if w.Frozen() {
		tier = core.Tier2
	}
	rep, err := VerifyWET(w, VerifyOptions{Tier: tier, MaxFindings: 8})
	if err != nil {
		return err
	}
	if rep.OK() {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d semantic findings", len(rep.Findings))
	if rep.Truncated {
		b.WriteString(" (truncated)")
	}
	for _, f := range rep.Findings {
		b.WriteString("; ")
		b.WriteString(f.String())
	}
	return fmt.Errorf("sanalysis: %s", b.String())
}
