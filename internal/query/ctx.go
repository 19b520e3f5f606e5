package query

import (
	"context"
	"fmt"
	"sync"

	"wet/internal/core"
	"wet/internal/ir"
)

// qctx holds what one query reads the WET through: a window per node and
// per edge it touches, a backward slice's instance set, value readers and
// occurrence sources. Every label sequence a query touches gets one cursor
// per query, not one per access (spawning a tier-2 cursor copies the
// stream's predictor tables). A whole-program pass (LoadValueTraces,
// AddressTraces) is one logical query: a producer feeding several
// statements keeps one reader and one decoded unique-value table.
//
// A qctx belongs to one query at a time and is confined to its goroutine,
// as its cursors are; the WET is never mutated. Between queries it waits in
// ctxPool with its buffers (acquire, release): release drops every cursor
// and every reference to the WET, and clears only the slots and pages the
// query touched. No result aliases a qctx.
type qctx struct {
	ctx     context.Context // the query's caller's; mergeSamples polls it
	w       *core.WET
	tier    core.Tier
	nodes   winTable[core.Window]    // node timestamps, read by epoch: a walker's by node, a sweep's per share
	edges   winTable[[2]core.Window] // (dst, src) labels: srcOrd's by edge index, an address trace's
	set     instSet                  // a slice's instances
	sweep   sweep
	vals    map[uint64]*valReader
	readers []*valReader           // released readers, with their buffers
	buf     [core.WalkChunk]uint32 // reusable batch buffer for value runs
	ts      [core.WalkChunk]uint32 // one window of node timestamps (occSrc.refill)
	srcs    []occSrc               // occurrence windows, reused by every statement of a pass
	live    []*occSrc              // mergeSamples' sources with samples left …
	heads   []uint32               // … and their next timestamps
	err     error                  // the first label a sample read found pointing nowhere
}

var ctxPool = sync.Pool{New: func() any { return new(qctx) }}

// acquire returns a pooled qctx for one query over w; the query hands it
// back with release, on every path.
func acquire(w *core.WET, tier core.Tier) *qctx {
	q := ctxPool.Get().(*qctx)
	q.ctx, q.w, q.tier = context.Background(), w, tier
	q.nodes.size(len(w.Nodes))
	q.edges.size(len(w.Edges))
	q.set.bind(w)
	return q
}

// newCtx returns a qctx no pool holds, for a pass over the whole program
// (LoadValueTraces, AddressTraces): pooled, the readers of every statement
// it read would wait between queries with their decoded tables. A pass
// indexes nothing by id, so its tables are not sized.
func newCtx(w *core.WET, tier core.Tier) *qctx {
	return &qctx{ctx: context.Background(), w: w, tier: tier}
}

// release empties q and returns it to ctxPool.
func (q *qctx) release() {
	q.nodes.release(func(win *core.Window) { win.Reuse(core.Window{}) })
	q.edges.release(func(p *[2]core.Window) { p[0].Reuse(core.Window{}); p[1].Reuse(core.Window{}) })
	q.set.release()
	q.sweep = sweep{live: q.sweep.live[:0], hits: q.sweep.hits[:0]}
	for _, r := range q.vals {
		r.seq.Reuse(core.Window{})
		*r = valReader{seq: r.seq, uvals: r.uvals[:0]}
		q.readers = append(q.readers, r)
	}
	clear(q.vals)
	for i := range q.srcs {
		q.srcs[i].ts = nil
	}
	q.ctx, q.w, q.srcs, q.err = nil, nil, q.srcs[:0], nil
	ctxPool.Put(q)
}

// winTable keeps a query's windows of one kind by id (a node's or an
// edge's): slot, sized to the WET, points into a slab of windows that
// outlive the query, run buffers and all. slab[:n] are this query's (take
// hands out one no id names); slab[n] is the spare a search reads through
// before it knows whether to keep it.
type winTable[W any] struct {
	slot []*W // by id
	slab []*W
	n    int
	ids  []int32 // the ids whose slots are set
}

// size makes the table index n ids. Every slot is empty between queries.
func (t *winTable[W]) size(n int) {
	if cap(t.slot) < n {
		t.slot = make([]*W, n)
	}
	t.slot = t.slot[:n]
}

// spare returns the windows take hands out next, holding whatever they last
// held: the caller Reuses them.
func (t *winTable[W]) spare() *W {
	if t.n == len(t.slab) {
		t.slab = append(t.slab, new(W))
	}
	return t.slab[t.n]
}

// take hands out the spare windows.
func (t *winTable[W]) take() *W {
	win := t.spare()
	t.n++
	return win
}

// put hands out the spare windows as id's.
func (t *winTable[W]) put(id int) *W {
	win := t.take()
	t.slot[id] = win
	t.ids = append(t.ids, int32(id))
	return win
}

// release empties the slots the query set and drops, with drop, what the
// windows it took and the spare hold.
func (t *winTable[W]) release(drop func(*W)) {
	for _, id := range t.ids {
		t.slot[id] = nil
	}
	for _, win := range t.slab[:min(len(t.slab), t.n+1)] {
		drop(win)
	}
	t.n, t.ids = 0, t.ids[:0]
}

// occ returns the occurrence source after srcs, which has room for it,
// empty but for its run list's buffer; the caller appends it by extending
// srcs.
func (q *qctx) occ() *occSrc {
	o := &q.srcs[:len(q.srcs)+1][len(q.srcs)]
	o.runs, o.head, o.fill = o.runs[:0], 0, 0
	return o
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
	uvals []uint32          // decoded prefix of uv, with room for all of it
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
	var r *valReader
	if k := len(q.readers) - 1; k >= 0 {
		r, q.readers = q.readers[k], q.readers[:k]
	} else {
		r = new(valReader)
	}
	r.st = n.Stmts[pos]
	seq := q.w.UValSeq(g, mi, q.tier)
	if seq.Len() != n.Execs {
		r.uv, r.nuv, seq = seq, seq.Len(), q.w.PatternSeq(g, q.tier)
		r.ra, _ = r.uv.(core.RandomAccess)
	}
	r.seq.Reuse(core.NewWindow(seq))
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
			if cap(r.uvals) < r.nuv {
				r.uvals = make([]uint32, 0, r.nuv)
			}
			// Decode a batch, not one value: a new unique value is usually
			// followed by more.
			n := len(r.uvals)
			r.uvals = r.uvals[:min(r.nuv, max(int(x)+1, n+core.WalkChunk))]
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
