package main

import (
	"fmt"
	"math/rand"

	"wet"
	"wet/internal/query"
)

// sliceJourney is the paper's Table 9: backward WET slices on the fully
// compressed trace. The op is the whole batch of criteria, not one slice:
// slices differ in size by orders of magnitude, and a median over pooled
// single slices sits on the cliff between two criteria. The alternate op is
// the forward slice of the same criteria, capped, because forward slicing
// rescans whole label sequences and must not get slower when backward
// probing is tuned.
type sliceJourney struct {
	recs []*recording
	// The backward batch slices one execution of each criterion statement,
	// the forward batch six: a capped forward slice is cheap and its
	// cost varies more from one execution to the next.
	crit, fcrit []criterion
	// Slice instances visited per batch; fixed by the criteria, so the
	// work of every op of a run is the same.
	backWork, fwdWork float64
}

// forwardCap bounds a forward slice: uncapped, one batch runs for tens of
// seconds.
const forwardCap = 300

func sliceProgs() []progSpec { return []progSpec{{"li", 1, 0}, {"gzip", 1, 0}} }

// criteriaPer is how many criterion statements each program contributes
// to the batch; forwardPer how many executions of each the forward batch
// slices.
var criteriaPer = []int{4, 6}

const forwardPer = 6

type criterion struct {
	rec  int
	inst query.Instance
	want sliceRef // what tier 1 of the same WET answers
}

// sliceRef summarises a slice for comparison: size, edges and a digest of
// the instance set.
type sliceRef struct {
	n, edges int
	digest   uint64
}

func refOf(res *query.SliceResult) sliceRef {
	ref := sliceRef{n: len(res.Instances), edges: res.Edges}
	for _, in := range res.Instances {
		ref.digest += mix(in.Node, uint32(in.Pos), int64(in.Ord))
	}
	return ref
}

// pickCriteria draws slicing criteria on r's trace: per executions of each
// of k statements. The statements are fixed by the program: the last
// definition executed at k evenly spaced points of the run. The seed picks
// which executions, within 1% of the run around each point. A slice's cost
// follows its statement and how much history lies behind it, so every seed
// gives a batch of like work.
func pickCriteria(r *recording, tr *wet.Trace, rng *rand.Rand, k, per int) ([]query.Instance, error) {
	total := r.log.time()
	out := make([]query.Instance, 0, k*per)
	for i := 0; i < k*per; i++ {
		i := i / per
		base := max(uint32(float64(total)*(float64(i)+0.5)/float64(k)), 1)
		stmt, _, err := r.log.defFrom(base)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.spec.name, err)
		}
		jitter := int64(total / 100)
		ts := int64(base) + rng.Int63n(2*jitter+1) - jitter
		ts = min(max(ts, 1), int64(total))
		in, err := tr.InstanceOfTS(stmt, r.log.nearestExec(stmt, uint32(ts)))
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

func (j *sliceJourney) setup(c *config, rng *rand.Rand, t *tracer, parent int) error {
	recs, err := recordAll(sliceProgs(), t, parent)
	if err != nil {
		return err
	}
	j.recs, j.crit, j.fcrit, j.backWork, j.fwdWork = recs, nil, nil, 0, 0
	for ri, r := range recs {
		id := t.begin("criteria", parent, noSpan)
		back, err := pickCriteria(r, r.tr, rng, criteriaPer[ri], 1)
		if err != nil {
			return err
		}
		fwd, err := pickCriteria(r, r.tr, rng, criteriaPer[ri], forwardPer)
		t.end(id)
		if err != nil {
			return err
		}
		// The reference slices come from tier 1 of the same WET.
		t1 := r.tr.AtTier(wet.Tier1)
		id = t.begin("reference.slices", parent, noSpan)
		for _, in := range back {
			res, err := t1.Backward(in, 0)
			if err != nil {
				return err
			}
			j.crit = append(j.crit, criterion{ri, in, refOf(res)})
			j.backWork += float64(len(res.Instances))
		}
		for _, in := range fwd {
			res, err := t1.Forward(in, forwardCap)
			if err != nil {
				return err
			}
			j.fcrit = append(j.fcrit, criterion{ri, in, refOf(res)})
			j.fwdWork += float64(len(res.Instances))
		}
		t.end(id)
	}
	for i := 0; i < c.warmups; i++ {
		if _, err := j.batch(nil, noSpan, noSpan, false); err != nil {
			return err
		}
	}
	_, err = j.batch(nil, noSpan, noSpan, true)
	return err
}

// batch slices every criterion at tier 2, backward or forward.
func (j *sliceJourney) batch(t *tracer, parent, op int, forward bool) ([]*query.SliceResult, error) {
	crit := j.crit
	if forward {
		crit = j.fcrit
	}
	out := make([]*query.SliceResult, len(crit))
	for i, cr := range crit {
		tr := j.recs[cr.rec].tr
		var err error
		if forward {
			id := t.begin("Trace.Forward", parent, op)
			out[i], err = tr.Forward(cr.inst, forwardCap)
			t.end(id)
		} else {
			id := t.begin("Trace.Backward", parent, op)
			out[i], err = tr.Backward(cr.inst, 0)
			t.end(id)
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sameSlices compares a batch's answers to tier 1's.
func (j *sliceJourney) sameSlices(got []*query.SliceResult, forward bool) error {
	crit := j.crit
	if forward {
		crit = j.fcrit
	}
	for i, cr := range crit {
		if refOf(got[i]) != cr.want {
			return fmt.Errorf("%s: tier-2 slice of %+v (forward=%v) differs from tier 1's", j.recs[cr.rec].spec.name, cr.inst, forward)
		}
	}
	return nil
}

func (j *sliceJourney) cycle(c *config, t *tracer, m *meter) {
	for i := 0; i < c.cycleOps; i++ {
		var out []*query.SliceResult
		op := m.opID()
		m.primary(j.backWork, func() (err error) {
			id := t.begin("op.slice", noSpan, op)
			out, err = j.batch(t, id, op, false)
			t.end(id)
			return err
		})
		if out != nil {
			m.fail(j.sameSlices(out, false))
		}
	}
	var out []*query.SliceResult
	op := m.opID()
	m.alt(j.fwdWork, func() (err error) {
		id := t.begin("op.slice.forward", noSpan, op)
		out, err = j.batch(t, id, op, true)
		t.end(id)
		return err
	})
	if out != nil {
		m.fail(j.sameSlices(out, true))
	}
}

func (j *sliceJourney) tailQuantile() float64    { return 0.80 }
func (j *sliceJourney) procs() int               { return 1 }
func (j *sliceJourney) recordings() []*recording { return j.recs }
func (j *sliceJourney) close()                   {}
