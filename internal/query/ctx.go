package query

import (
	"fmt"

	"wet/internal/core"
)

// qctx caches the detached cursors one logical query needs, so every label
// sequence it touches is materialized once per query rather than once per
// access. Spawning a tier-2 cursor copies the stream's predictor tables;
// queries that revisit the same edge or group (slice sweeps, DOT
// re-walks, address resolution) would otherwise pay that copy in their
// inner loop. A whole-program pass (LoadValueTraces, AddressTraces) is one
// logical query: its statements share the qctx, so a producer feeding
// several of them keeps one reader and one decoded unique-value table.
//
// A qctx is confined to one goroutine — the cursors it holds are. That is
// the whole concurrency story: independent queries against the same frozen
// WET each build a private qctx, and the WET itself is never mutated.
type qctx struct {
	w     *core.WET
	tier  core.Tier
	edges []*edgeCur // by edge index, spawned on first touch (srcOrd)
	vals  map[uint64]*valReader
	buf   [walkChunk]uint32 // reusable batch buffer for value runs
	ts    [walkChunk]uint32 // one window of node timestamps (occSrc.refill)
	srcs  []occSrc          // occurrence windows, reused by every statement of a pass
}

func newCtx(w *core.WET, tier core.Tier) *qctx {
	return &qctx{w: w, tier: tier}
}

// occs returns an empty list with room for n occurrence sources.
func (q *qctx) occs(n int) []occSrc {
	if cap(q.srcs) < n {
		q.srcs = make([]occSrc, 0, n)
	}
	return q.srcs[:0]
}

// valReader resolves one statement occurrence's values by execution ordinal.
// It steps its streams forward in batches and seeks only when asked for an
// ordinal outside the window it holds: seq is read walkChunk ordinals at a
// time, and the unique values it indexes are decoded once, as a prefix that
// grows with the largest index seen — the builder numbers unique values in
// discovery order, so a forward read never indexes past the prefix by more
// than one.
type valReader struct {
	// seq is what an ordinal indexes: the group pattern, or — when every
	// execution produced a new unique value, so the pattern can only be
	// 0,1,2,… — the unique values themselves, with no pattern read at all.
	seq core.Seq
	// uv holds the unique values a pattern entry indexes; nil when seq
	// yields values directly.
	uv    core.Seq
	ra    core.RandomAccess // uv's O(1) reads at tier 1, which needs no table
	uvals []uint32          // decoded prefix of uv, allocated at uv's exact length

	win        *[walkChunk]uint32 // at's window: seq's elements base … base+fill-1
	base, fill int
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
	r := &valReader{seq: q.w.UValSeq(g, mi, q.tier)}
	if r.seq.Len() != n.Execs {
		r.uv, r.seq = r.seq, q.w.PatternSeq(g, q.tier)
		r.ra, _ = r.uv.(core.RandomAccess)
	}
	if q.vals == nil {
		q.vals = map[uint64]*valReader{}
	}
	q.vals[key] = r
	return r, nil
}

// uval returns unique value idx, extending the decoded prefix to cover it.
func (r *valReader) uval(idx int) uint32 {
	if r.ra != nil {
		return r.ra.At(idx)
	}
	if idx >= len(r.uvals) {
		if r.uvals == nil {
			r.uvals = make([]uint32, 0, r.uv.Len())
		}
		// Decode a batch, not one value: a new unique value is usually
		// followed by more.
		n := len(r.uvals)
		r.uvals = r.uvals[:min(cap(r.uvals), max(idx+1, n+walkChunk))]
		core.SeqNextN(r.uv, r.uvals[n:])
	}
	return r.uvals[idx]
}

// run fills vals with the raw 32-bit values of ordinals from, from+1, …: the
// sequential read of an occurrence tracing itself or feeding an inferable
// edge. It seeks only if the last read ended elsewhere.
func (r *valReader) run(from int, vals []uint32) {
	if r.seq.Pos() != from {
		seqSeek(r.seq, from)
	}
	core.SeqNextN(r.seq, vals)
	if r.uv != nil {
		for i, idx := range vals {
			vals[i] = r.uval(int(idx))
		}
	}
}

// at returns the value produced at the occurrence's ord-th execution. An
// ordinal less than one window ahead of the cursor is reached by reading on;
// anything else costs one seek.
func (r *valReader) at(ord int) int64 {
	if uint(ord-r.base) >= uint(r.fill) {
		if r.win == nil {
			r.win = new([walkChunk]uint32)
		}
		pos := r.seq.Pos()
		if ord < pos || ord >= pos+walkChunk {
			seqSeek(r.seq, ord)
			pos = ord
		}
		r.base, r.fill = pos, 0
		for ord >= r.base+r.fill {
			r.base += r.fill
			if r.fill = core.SeqNextN(r.seq, r.win[:]); r.fill == 0 {
				panic(fmt.Sprintf("query: ordinal %d outside [0,%d)", ord, r.seq.Len()))
			}
		}
	}
	v := r.win[ord-r.base]
	if r.uv != nil {
		v = r.uval(int(v))
	}
	return int64(int32(v))
}
