package query

import "wet/internal/core"

// CapabilityError is the typed refusal a query returns when it needs data
// the trace does not hold: data a byte-budgeted freeze discarded (dropped
// value groups or dependence-edge labels), or tier-1
// labels on a trace that keeps tier 2 only. A trace answers what it can;
// what it cannot, it refuses with this error — never with wrong data. Check
// with errors.As against *query.CapabilityError; the Capability field holds
// the stable core.Cap* identifier that was lost.
type CapabilityError = core.CapabilityError
