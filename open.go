package wet

import (
	"context"
	"io"

	"wet/internal/wetio"
)

type openConfig struct {
	ctx        context.Context
	salvage    bool
	verifyOnly bool
	workers    int
	lazy       bool
	segments   *SegmentSource
}

// WithSalvage loads as much of a damaged file as remains loadable instead
// of failing on the first structural or checksum error; the OpenReport's
// Salvage field details every loss (Open(r, WithSalvage()) ≡ LoadSalvage).
func WithSalvage() OpenOption {
	return openOptionFunc(func(c *openConfig) { c.salvage = true })
}

// WithVerifyOnly walks the file's sections checking each checksum without
// parsing any payload; Open returns a nil Trace and the OpenReport's
// Verify field holds the walk (Open(r, WithVerifyOnly()) ≡ Verify).
func WithVerifyOnly() OpenOption {
	return openOptionFunc(func(c *openConfig) { c.verifyOnly = true })
}

// WithLazy defers each stream's decode until a cursor first touches it.
// Framing, checksums, and serialized-state structure are still validated up
// front, so Open's error contract is unchanged for well-formed framing; a
// stream whose deferred decode fails (possible only on a forged store that
// passed its CRC) surfaces a *DecodeError at first touch — as the error
// return of the query that touched it, or as a typed panic from raw cursor
// stepping — and the next touch tries again. The decode is single-flight and
// safe under concurrent first touch from parallel queries. Every deferred
// stream keeps a view of the file's bytes (saving the trace writes them back
// undecoded), so the file's buffer lives as long as the trace. Ignored with
// WithSalvage (damage must be found eagerly).
func WithLazy() OpenOption {
	return openOptionFunc(func(c *openConfig) { c.lazy = true })
}

// SegmentSource indexes a container's individually-decodable label streams
// for segment-granular residency; see WithSegments.
type SegmentSource = wetio.SegmentSource

// NewSegmentSource returns an empty segment index to pass to WithSegments.
func NewSegmentSource() *SegmentSource { return wetio.NewSegmentSource() }

// WithSegments is WithLazy plus an index: every deferred stream (for a v4
// container, every epoch segment) takes its own copy of its serialized bytes
// and is registered in ss, so a cache can hook its decodes and evict and
// rebuild its decoded state on demand — the mechanism behind byte-budgeted
// multi-trace serving. Works on every container version; ignored where
// WithLazy is, and with WithVerifyOnly.
func WithSegments(ss *SegmentSource) OpenOption {
	return openOptionFunc(func(c *openConfig) { c.segments = ss })
}

// OpenReport describes what Open found in the file.
type OpenReport struct {
	// Version is the file format version (2, 3, or 4).
	Version int `json:"version"`
	// Verify holds the section-by-section integrity walk; set only with
	// WithVerifyOnly.
	Verify *VerifyResult `json:"verify,omitempty"`
	// Salvage accounts for sections read, dropped, and repaired; set only
	// with WithSalvage. Its Clean method distinguishes intact from lossy
	// loads.
	Salvage *SalvageReport `json:"salvage,omitempty"`
}

// Open reads a WET file written by Save (or (*Trace).Save) and returns it
// as a query handle at tier 2, the only tier an opened file has (at Tier1
// every query refuses with a *CapabilityError naming CapTier1):
//
//	Open(r)                   strict load
//	Open(r, WithSalvage())    best-effort load of damage
//	Open(r, WithVerifyOnly()) checksum walk, nil Trace
//
// WithWorkers(n) and WithLazy() tune the decode path — parallel section
// decode and deferred stream materialization — without changing any observed
// result; WithContext makes it cancellable. Options compose, except WithVerifyOnly, which never
// constructs a trace. Structural or checksum failures on the strict path
// are reported as *FormatError.
func Open(r io.Reader, opts ...OpenOption) (*Trace, *OpenReport, error) {
	var cfg openConfig
	for _, o := range opts {
		o.applyOpen(&cfg)
	}
	if cfg.verifyOnly {
		res, err := wetio.VerifyCtx(cfg.ctx, r)
		if err != nil {
			return nil, nil, err
		}
		return nil, &OpenReport{Version: res.Version, Verify: res}, nil
	}
	w, rep, err := wetio.LoadWithReport(r, wetio.LoadOptions{
		Ctx:      cfg.ctx,
		Salvage:  cfg.salvage,
		Workers:  cfg.workers,
		Lazy:     cfg.lazy,
		Segments: cfg.segments,
	})
	if err != nil {
		return nil, nil, err
	}
	out := &OpenReport{Version: rep.Version}
	if cfg.salvage {
		out.Salvage = rep
	}
	tr := NewTrace(w)
	tr.open = out
	return tr, out, nil
}
