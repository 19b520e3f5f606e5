package main

import (
	"bytes"
	"math/rand"

	"wet"
)

// replayJourney is journey 2: .wet bytes -> wet.Open -> whole-trace
// extraction. The primary op opens each file eagerly and extracts the whole
// control-flow trace forward and backward, every load-value trace and every
// address trace; every emit callback feeds a digest, because a nil emit
// short-cuts the walk. The alternate op is the time-to-first-answer path:
// cold lazy opens, each answering a few seeded 512-timestamp windows.
type replayJourney struct {
	recs    []*recording
	windows [][]cfWindow // per recording
	stmts   float64
}

const (
	replayEpochTS   = 1 << 13 // 2-3 epochs at these sizes, v4 container
	replayOpens     = 4       // cold lazy opens of each file per alternate op
	replayWindows   = 8       // windows answered per open
	replayWindowLen = 512     // timestamps per window
)

func replayProgs(small bool) []progSpec {
	if small {
		return []progSpec{{"gcc", 1, replayEpochTS}, {"li", 1, replayEpochTS}}
	}
	return []progSpec{{"gcc", 4, replayEpochTS}, {"li", 3, replayEpochTS}}
}

// seededWindows draws n windows of length ts, one in each n-th of the
// trace, so every seed spreads them over the run the same way.
func seededWindows(r *recording, rng *rand.Rand, n int, length uint32) []cfWindow {
	total := r.log.time()
	ws := make([]cfWindow, n)
	for k := range ws {
		lo := uint64(total-length) * uint64(k) / uint64(n)
		hi := uint64(total-length) * uint64(k+1) / uint64(n)
		from := uint32(lo) + 1 + uint32(rng.Int63n(int64(hi-lo)))
		ws[k] = r.windowRef(from, from+length-1)
	}
	return ws
}

func (j *replayJourney) setup(c *config, rng *rand.Rand, t *tracer, parent int) error {
	recs, err := recordAll(replayProgs(c.small), t, parent)
	if err != nil {
		return err
	}
	j.recs = recs
	_, stmts := sizeOf(recs)
	j.stmts = float64(stmts)
	j.windows = make([][]cfWindow, len(recs))
	for i, r := range recs {
		j.windows[i] = seededWindows(r, rng, replayOpens*replayWindows, replayWindowLen)
	}
	for i := 0; i < c.warmups; i++ {
		if err := j.extractAll(nil, noSpan, noSpan); err != nil {
			return err
		}
		if err := j.firstAnswers(nil, noSpan, noSpan); err != nil {
			return err
		}
	}
	return nil
}

// extractAll is the primary op. The checks are the extraction: each
// compares what it emitted to the oracle.
func (j *replayJourney) extractAll(t *tracer, parent, op int) error {
	for _, r := range j.recs {
		id := t.begin("wet.Open", parent, op)
		tr, _, err := wet.Open(bytes.NewReader(r.data))
		t.end(id)
		if err != nil {
			return err
		}
		id = t.begin("Trace.ExtractControlFlow.forward", parent, op)
		err = r.checkCF(tr, true)
		t.end(id)
		if err != nil {
			return err
		}
		id = t.begin("Trace.ExtractControlFlow.backward", parent, op)
		err = r.checkCF(tr, false)
		t.end(id)
		if err != nil {
			return err
		}
		id = t.begin("query.LoadValueTraces", parent, op)
		_, err = r.checkValues(tr)
		t.end(id)
		if err != nil {
			return err
		}
		id = t.begin("query.AddressTraces", parent, op)
		_, err = r.checkAddrs(tr)
		t.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// firstAnswers is the alternate op.
func (j *replayJourney) firstAnswers(t *tracer, parent, op int) error {
	for k := 0; k < replayOpens; k++ {
		for i, r := range j.recs {
			id := t.begin("wet.Open.lazy", parent, op)
			tr, _, err := wet.Open(bytes.NewReader(r.data), wet.WithLazy())
			t.end(id)
			if err != nil {
				return err
			}
			id = t.begin("Trace.ExtractCFRange", parent, op)
			for _, w := range j.windows[i][k*replayWindows : (k+1)*replayWindows] {
				if err = r.checkWindow(tr, w); err != nil {
					break
				}
			}
			t.end(id)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func (j *replayJourney) cycle(c *config, t *tracer, m *meter) {
	for i := 0; i < c.cycleOps; i++ {
		op := m.opID()
		m.primary(4*j.stmts, func() error {
			id := t.begin("op.replay", noSpan, op)
			defer t.end(id)
			return j.extractAll(t, id, op)
		})
		op = m.opID()
		m.alt(float64(len(j.recs)*replayOpens*replayWindows), func() error {
			id := t.begin("op.replay.first_answers", noSpan, op)
			defer t.end(id)
			return j.firstAnswers(t, id, op)
		})
	}
}

func (j *replayJourney) tailQuantile() float64    { return 0.80 }
func (j *replayJourney) procs() int               { return 1 }
func (j *replayJourney) recordings() []*recording { return j.recs }
func (j *replayJourney) close()                   {}
