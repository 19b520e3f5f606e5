package query

import (
	"context"
	"fmt"

	"wet/internal/core"
	"wet/internal/ir"
)

// qctx caches the windows one logical query needs, so every label sequence
// it touches gets one cursor per query, not one per access (spawning a
// tier-2 cursor copies the stream's predictor tables). A whole-program pass
// (LoadValueTraces, AddressTraces) is one logical query: a producer feeding
// several statements keeps one reader and one decoded unique-value table.
// A qctx is confined to one goroutine, as its cursors are; independent
// queries build private ones, and the WET is never mutated.
type qctx struct {
	ctx   context.Context // the query's caller's; mergeSamples polls it
	w     *core.WET
	tier  core.Tier
	edges []*[2]core.Window // (dst, src) by edge index, spawned on first touch (srcOrd)
	vals  map[uint64]*valReader
	buf   [core.WalkChunk]uint32 // reusable batch buffer for value runs
	ts    [core.WalkChunk]uint32 // one window of node timestamps (occSrc.refill)
	srcs  []occSrc               // occurrence windows, reused by every statement of a pass
	err   error                  // the first label a sample read found pointing nowhere
}

func newCtx(w *core.WET, tier core.Tier) *qctx {
	return &qctx{ctx: context.Background(), w: w, tier: tier}
}

// occs returns an empty list with room for n occurrence sources.
func (q *qctx) occs(n int) []occSrc {
	if cap(q.srcs) < n {
		q.srcs = make([]occSrc, 0, n)
	}
	return q.srcs[:0]
}

// valReader resolves one statement occurrence's values by execution ordinal,
// through a window; the unique values it indexes are decoded once, as a
// prefix that grows with the largest index seen — the builder numbers them in
// discovery order, so a forward read indexes at most one past the prefix.
type valReader struct {
	st *ir.Stmt
	// seq is what an ordinal indexes: the group pattern, or — when every
	// execution produced a new unique value, so the pattern can only be
	// 0,1,2,… — the unique values themselves, with no pattern read at all.
	seq core.Window
	// uv holds the unique values a pattern entry indexes; nil when seq
	// yields values directly.
	uv    core.Seq
	nuv   int               // uv's length
	ra    core.RandomAccess // uv's O(1) reads at tier 1, which needs no table
	uvals []uint32          // decoded prefix of uv, allocated at uv's exact length
}

// valueReader returns this query's cached reader for the statement at
// (n, pos), or an error when the statement has no def port.
func (q *qctx) valueReader(n *core.Node, pos int) (*valReader, error) {
	key := uint64(n.ID)<<32 | uint64(uint32(pos))
	if r, ok := q.vals[key]; ok {
		return r, nil
	}
	g := n.Groups[n.GroupOf[pos]]
	mi := g.ValMemberIndex(pos)
	if mi < 0 {
		return nil, fmt.Errorf("query: %s has no def port", n.Stmts[pos])
	}
	r := &valReader{st: n.Stmts[pos]}
	seq := q.w.UValSeq(g, mi, q.tier)
	if seq.Len() != n.Execs {
		r.uv, r.nuv, seq = seq, seq.Len(), q.w.PatternSeq(g, q.tier)
		r.ra, _ = r.uv.(core.RandomAccess)
	}
	r.seq = core.NewWindow(seq)
	if q.vals == nil {
		q.vals = map[uint64]*valReader{}
	}
	q.vals[key] = r
	return r, nil
}

// val returns the value element x of seq stands for: x itself, or the
// unique value a pattern entry indexes (decoding the prefix on to cover it).
// false (q.err set) means the entry points past the table.
func (r *valReader) val(q *qctx, x uint32) (int64, bool) {
	switch {
	case r.uv == nil:
	case int(x) >= r.nuv:
		q.err = fmt.Errorf("query: %s: pattern entry %d outside [0,%d)", r.st, x, r.nuv)
		return 0, false
	case r.ra != nil:
		x = r.ra.At(int(x))
	default:
		if int(x) >= len(r.uvals) {
			if r.uvals == nil {
				r.uvals = make([]uint32, 0, r.nuv)
			}
			// Decode a batch, not one value: a new unique value is usually
			// followed by more.
			n := len(r.uvals)
			r.uvals = r.uvals[:min(cap(r.uvals), max(int(x)+1, n+core.WalkChunk))]
			r.uv.NextN(r.uvals[n:])
		}
		x = r.uvals[x]
	}
	return int64(int32(x)), true
}

// at returns the value produced at the occurrence's ord-th execution; false
// (q.err set) means the occurrence never ran an ord-th time.
func (r *valReader) at(q *qctx, ord int) (int64, bool) {
	if uint(ord) >= uint(r.seq.Len()) {
		q.err = fmt.Errorf("query: %s: label names execution %d of %d", r.st, ord, r.seq.Len())
		return 0, false
	}
	return r.val(q, r.seq.At(ord, false))
}
