package sanalysis_test

import (
	"strings"
	"testing"

	"wet/internal/core"
	"wet/internal/sanalysis"
)

// TestCertifyReportsFindings certifies a clean frozen WET through its
// tier-2 streams, then corrupts it and checks the certifier renders the
// rule id into its error.
func TestCertifyReportsFindings(t *testing.T) {
	w := buildRaw(t, "li", 3)
	if _, err := w.FreezeErr(core.FreezeOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := sanalysis.Certify(w); err != nil {
		t.Fatalf("Certify on a clean build: %v", err)
	}
	// Repoint a labeled CD edge's source ordinal stream is invasive; the
	// cheap corruption with the same effect at tier-1 is retargeting an
	// unfrozen copy — so corrupt the static side instead: verify against an
	// analysis for a different path numbering is not possible here, so flip
	// the first labeled edge's kind, which breaks the static instance check.
	for _, e := range w.Edges {
		if e.Kind == core.CD && !e.Inferable && e.SharedWith < 0 {
			e.Kind = core.DD
			e.OpIdx = 0
			break
		}
	}
	err := sanalysis.Certify(w)
	if err == nil {
		t.Fatal("certifier passed a corrupted WET")
	}
	if !strings.Contains(err.Error(), "DD0") {
		t.Fatalf("certifier error lacks a DD rule id: %v", err)
	}
}
