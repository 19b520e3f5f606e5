package core

import "fmt"

// CertifyFunc is a semantic certifier for a WET: it checks the trace against
// the static semantics of its program and returns an error describing the
// first violations when the trace is not a possible execution.
//
// The concrete certifier lives in internal/sanalysis (which imports core, so
// core cannot call it directly); importing that package registers it here.
type CertifyFunc func(w *WET) error

var certifier CertifyFunc

// RegisterCertifier installs the semantic certifier. Called from an init in
// the package providing it; the last registration wins.
func RegisterCertifier(f CertifyFunc) { certifier = f }

// Certify runs the registered semantic certifier over the WET.
func (w *WET) Certify() error {
	if certifier == nil {
		return fmt.Errorf("core: no semantic certifier registered (import wet/internal/sanalysis)")
	}
	return certifier(w)
}

// FreezeCertified freezes the WET and then certifies it semantically,
// failing the build if the trace violates the static semantics of its
// program. It is the option-gated build-time hook for pipelines that save
// WETs for later consumption: a certified file needs no semantic re-check
// after a clean byte-level verify.
func (w *WET) FreezeCertified(opts FreezeOptions) (*SizeReport, error) {
	rep, err := w.FreezeErr(opts)
	if err != nil {
		return nil, err
	}
	if err := w.Certify(); err != nil {
		return rep, fmt.Errorf("core: post-freeze certification failed: %w", err)
	}
	return rep, nil
}
