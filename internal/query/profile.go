package query

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"wet/internal/core"
	"wet/internal/ir"
)

// Invariance summarizes how predictable one statement's values are — the
// value-profiling metric of Calder et al. that the paper cites as a
// motivating consumer.
type Invariance struct {
	StmtID  int
	Execs   uint64
	Uniques int
	// TopValue is the most frequent value; TopFraction its share of all
	// executions (1.0 = fully invariant).
	TopValue    int64
	TopFraction float64
}

// ValueInvariance computes the invariance profile of every def-port
// statement executed at least minExecs times, sorted by descending
// TopFraction (most specializable first).
func ValueInvariance(w *core.WET, tier core.Tier, minExecs uint64) ([]Invariance, error) {
	var out []Invariance
	for _, st := range w.Prog.Stmts {
		if !st.Op.HasDef() || st.Dest < 0 {
			continue
		}
		counts := map[int64]uint64{}
		n, err := ValueTraceCtx(context.Background(), w, tier, st.ID, -1, func(s Sample) {
			counts[s.Value]++
		})
		if err != nil {
			return nil, err
		}
		if n < minExecs || n == 0 {
			continue
		}
		inv := Invariance{StmtID: st.ID, Execs: n, Uniques: len(counts)}
		var bestC uint64
		for v, c := range counts {
			// Ties break toward the smaller value so the result does not
			// depend on map iteration order.
			if c > bestC || (c == bestC && v < inv.TopValue) {
				bestC, inv.TopValue = c, v
			}
		}
		inv.TopFraction = float64(bestC) / float64(n)
		out = append(out, inv)
	}
	slices.SortStableFunc(out, func(x, y Invariance) int {
		return cmp.Or(cmp.Compare(y.TopFraction, x.TopFraction), cmp.Compare(y.Execs, x.Execs))
	})
	return out, nil
}

// RefPattern classifies a memory instruction's address stream.
type RefPattern int

const (
	// RefConstant: the instruction always touches one address.
	RefConstant RefPattern = iota
	// RefStrided: a dominant repeated stride (prefetchable stream).
	RefStrided
	// RefIrregular: no dominant stride (pointer chasing).
	RefIrregular
)

func (p RefPattern) String() string {
	switch p {
	case RefConstant:
		return "constant"
	case RefStrided:
		return "strided"
	default:
		return "irregular"
	}
}

// StrideProfile summarizes one load/store's reference behaviour — the hot
// data stream detection of Chilimbi / Joseph–Grunwald the paper cites.
type StrideProfile struct {
	StmtID     int
	Accesses   int
	Pattern    RefPattern
	Stride     int64
	Confidence float64 // fraction of consecutive pairs showing Stride
}

// StrideProfiles classifies every load/store with at least minAccesses
// dynamic accesses, hottest first.
func StrideProfiles(w *core.WET, tier core.Tier, minAccesses int) ([]StrideProfile, error) {
	var out []StrideProfile
	for _, st := range w.Prog.Stmts {
		if st.Op != ir.OpLoad && st.Op != ir.OpStore {
			continue
		}
		var addrs []int64
		if _, err := AddressTraceCtx(context.Background(), w, tier, st.ID, -1, func(s Sample) {
			addrs = append(addrs, s.Value)
		}); err != nil {
			return nil, err
		}
		if len(addrs) < minAccesses || len(addrs) < 2 {
			continue
		}
		strides := map[int64]int{}
		for i := 1; i < len(addrs); i++ {
			strides[addrs[i]-addrs[i-1]]++
		}
		var best int64
		bestN := 0
		for s, n := range strides {
			// Deterministic tie-break (smaller stride) — independent of map
			// iteration order.
			if n > bestN || (n == bestN && s < best) {
				best, bestN = s, n
			}
		}
		sp := StrideProfile{
			StmtID:     st.ID,
			Accesses:   len(addrs),
			Stride:     best,
			Confidence: float64(bestN) / float64(len(addrs)-1),
		}
		switch {
		case best == 0 && sp.Confidence > 0.95:
			sp.Pattern = RefConstant
		case sp.Confidence > 0.7:
			sp.Pattern = RefStrided
		default:
			sp.Pattern = RefIrregular
		}
		out = append(out, sp)
	}
	slices.SortStableFunc(out, func(x, y StrideProfile) int { return cmp.Compare(y.Accesses, x.Accesses) })
	return out, nil
}

// RangeError reports an inverted timestamp range handed to ExtractCFRangeCtx:
// the caller asked for a window that ends before it starts. It used to be
// swallowed as an empty extraction, which made off-by-swap bugs in callers
// invisible.
type RangeError struct {
	From, To uint32
}

func (e *RangeError) Error() string {
	return fmt.Sprintf("query: inverted timestamp range [%d, %d]", e.From, e.To)
}
