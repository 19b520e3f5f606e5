package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"wet"
)

// recordJourney is journey 1: program -> wet.Run -> .wet bytes. One op is
// one homogeneous round over two programs: gcc (irregular control flow) and
// mcf (value- and pointer-heavy), the two with the most bytes per statement.
// The primary round streams the build in epochs; the alternate round is the
// single-epoch Build+Freeze route writing a v3 container, so tuning one
// build path cannot silently cost the other.
type recordJourney struct {
	recs []*recording
	// The containers every op must reproduce byte for byte, per route;
	// both sets are checked against the oracle in set-up.
	ref, altRef [][]byte
	stmts       float64
}

// recordEpochTS seals 4-5 epochs per program at these sizes.
const recordEpochTS = 1 << 11

func recordProgs() []progSpec {
	return []progSpec{{"gcc", 1, recordEpochTS}, {"mcf", 1, recordEpochTS}}
}

func (j *recordJourney) setup(c *config, _ *rand.Rand, t *tracer, parent int) error {
	recs, err := recordAll(recordProgs(), t, parent)
	if err != nil {
		return err
	}
	j.recs, j.ref = recs, nil
	for _, r := range recs {
		j.ref = append(j.ref, r.data)
	}
	_, stmts := sizeOf(recs)
	j.stmts = float64(stmts)

	// The alternate route's reference bytes: reopen them and check the
	// control flow against the oracle, so both routes are verified.
	j.altRef, err = j.round(t, parent, noSpan, 0)
	if err != nil {
		return err
	}
	for i, r := range recs {
		tr, _, err := wet.Open(bytes.NewReader(j.altRef[i]))
		if err != nil {
			return err
		}
		if err := r.checkCF(tr, true); err != nil {
			return fmt.Errorf("single-epoch route: %w", err)
		}
	}
	for i := 0; i < c.warmups; i++ {
		if _, err := j.round(nil, noSpan, noSpan, recordEpochTS); err != nil {
			return err
		}
	}
	return nil
}

// round records every program once and saves each trace to memory.
func (j *recordJourney) round(t *tracer, parent, op int, epochTS uint32) ([][]byte, error) {
	out := make([][]byte, len(j.recs))
	for i, r := range j.recs {
		id := t.begin("wet.Run", parent, op)
		tr, res, err := wet.Run(r.prog, wet.WithInputs(r.inputs...), wet.WithEpochTS(epochTS))
		t.end(id)
		if err != nil {
			return nil, err
		}
		if res.Steps != r.stmts {
			return nil, fmt.Errorf("%s: recorded %d statements, want %d", r.spec.name, res.Steps, r.stmts)
		}
		var buf bytes.Buffer
		id = t.begin("Trace.Save", parent, op)
		err = tr.Save(&buf)
		t.end(id)
		if err != nil {
			return nil, err
		}
		out[i] = buf.Bytes()
	}
	return out, nil
}

// sameBytes fails an op whose containers differ from the reference ones.
func (j *recordJourney) sameBytes(got, want [][]byte) error {
	for i, r := range j.recs {
		if !bytes.Equal(got[i], want[i]) {
			return fmt.Errorf("%s: saved bytes differ from the first op's", r.spec.name)
		}
	}
	return nil
}

func (j *recordJourney) cycle(c *config, t *tracer, m *meter) {
	for i := 0; i < c.cycleOps; i++ {
		var out [][]byte
		op := m.opID()
		m.primary(j.stmts, func() (err error) {
			id := t.begin("op.record", noSpan, op)
			out, err = j.round(t, id, op, recordEpochTS)
			t.end(id)
			return err
		})
		if out != nil {
			m.fail(j.sameBytes(out, j.ref))
		}
	}
	var out [][]byte
	op := m.opID()
	m.alt(j.stmts, func() (err error) {
		id := t.begin("op.record.single_epoch", noSpan, op)
		out, err = j.round(t, id, op, 0)
		t.end(id)
		return err
	})
	if out != nil {
		m.fail(j.sameBytes(out, j.altRef))
	}
}

func (j *recordJourney) tailQuantile() float64    { return 0.80 }
func (j *recordJourney) procs() int               { return 1 }
func (j *recordJourney) recordings() []*recording { return j.recs }
func (j *recordJourney) close()                   {}
