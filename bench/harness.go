package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"
)

// config is one run of one workload.
type config struct {
	workload  string
	seed      uint64
	seconds   float64 // how long the op loop measures
	trace     bool    // traced run: per-layer metrics instead of end-to-end ones
	traceFile string

	// The smoke test shrinks these; the defaults are what the bounds in
	// spec.go were sized with.
	minPrimary int // primary ops the loop completes at least, so the tail has >= 10 samples beyond it
	cycleOps   int // primary ops per interleave cycle of the batch workloads
	setups     int // set-ups per run; setup_s is their median
	warmups    int // untimed warm-up ops that end each set-up
	probeReps  int // repetitions behind each per-layer timing
	small      bool
}

func defaultConfig() config {
	return config{seconds: 20, minPrimary: 100, cycleOps: 4, setups: 3, warmups: 3, probeReps: 3}
}

// journey is one workload: a user's route through the layers.
type journey interface {
	// setup builds the inputs and the oracle from the seed, then runs the
	// warm-up ops. Spans go under parent.
	setup(c *config, rng *rand.Rand, t *tracer, parent int) error
	// cycle runs one interleave unit: a few primary ops, then one
	// alternate op, so machine drift hits both alike.
	cycle(c *config, t *tracer, m *meter)
	// tailQuantile is the highest percentile with >= 10 samples beyond it
	// in the quiet half of a run of minPrimary ops.
	tailQuantile() float64
	// procs is the GOMAXPROCS the workload runs at.
	procs() int
	// recordings are the workload's own inputs; the layer probes run on them.
	recordings() []*recording
	close()
}

func newJourney(name string) journey {
	switch name {
	case "record":
		return &recordJourney{}
	case "replay":
		return &replayJourney{}
	case "slice":
		return &sliceJourney{}
	case "serve":
		return &serveJourney{}
	}
	return nil
}

// cycleStat is what one interleave cycle measured.
type cycleStat struct {
	traced bool
	lat    []float64 // latencies of the cycle's primary ops, ms

	work, sec       float64 // primary ops
	altWork, altSec float64 // alternate op
}

// meter accumulates what the op loop measures, cycle by cycle.
type meter struct {
	cycles []cycleStat

	primOps    int
	allocBytes uint64 // TotalAlloc across the primary ops
	heapPeak   uint64

	attempted, failed int
	firstErr          error
	nextOp            int // span op ids
}

func (m *meter) beginCycle(traced bool) { m.cycles = append(m.cycles, cycleStat{traced: traced}) }

func (m *meter) cur() *cycleStat { return &m.cycles[len(m.cycles)-1] }

// measure times f with the allocation counters read outside the timed region.
func (m *meter) measure(f func()) (sec float64, alloc uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	f()
	sec = time.Since(t0).Seconds()
	runtime.ReadMemStats(&b)
	if b.HeapInuse > m.heapPeak {
		m.heapPeak = b.HeapInuse
	}
	return sec, b.TotalAlloc - a.TotalAlloc
}

func (m *meter) opID() int {
	m.nextOp++
	return m.nextOp - 1
}

// primary runs one primary op doing work units; an error fails the op.
func (m *meter) primary(work float64, op func() error) {
	var err error
	sec, alloc := m.measure(func() { err = op() })
	m.attempted++
	m.fail(err)
	c := m.cur()
	c.lat = append(c.lat, sec*1e3)
	c.work += work
	c.sec += sec
	m.allocBytes += alloc
	m.primOps++
}

// alt runs one alternate op.
func (m *meter) alt(work float64, op func() error) {
	var err error
	sec, _ := m.measure(func() { err = op() })
	m.attempted++
	m.fail(err)
	c := m.cur()
	c.altWork += work
	c.altSec += sec
}

func (m *meter) fail(err error) {
	if err == nil {
		return
	}
	m.failed++
	if m.firstErr == nil {
		m.firstErr = err
	}
}

// quiet returns the 1/div of cycles with the least cost (seconds per unit
// of work). The host is shared, and what a neighbour does to a run is
// one-sided: it only ever slows ops down, in bursts of seconds that a
// median over the whole run follows. So rates and medians are taken over
// the quiet quarter of the run's cycles and the tail over the quiet half
// (it needs the samples); the same rule on both sides of a comparison, and
// a change that slows every op slows the quiet cycles as much.
func quiet(cycles []cycleStat, div int, cost func(*cycleStat) float64) []cycleStat {
	s := append([]cycleStat(nil), cycles...)
	sort.SliceStable(s, func(i, j int) bool { return cost(&s[i]) < cost(&s[j]) })
	return s[:(len(s)+div-1)/div]
}

const (
	quietRates = 4 // rates and medians: the quiet quarter
	quietTail  = 2 // the tail: the quiet half
)

func primaryCost(c *cycleStat) float64 { return c.sec / c.work }
func altCost(c *cycleStat) float64     { return c.altSec / c.altWork }

// latencies pools the primary-op latencies of cycles.
func latencies(cycles []cycleStat) []float64 {
	var out []float64
	for _, c := range cycles {
		out = append(out, c.lat...)
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// Not printed in the result line: context for the human-readable report.
	info     []string
	firstErr error
}

// run executes one workload run and returns its metrics.
func run(c config) (*result, error) {
	j := newJourney(c.workload)
	if j == nil {
		return nil, fmt.Errorf("unknown workload %q", c.workload)
	}
	procs := j.procs()
	runtime.GOMAXPROCS(procs)
	var t *tracer
	if c.trace {
		t = newTracer()
	}

	// Set up several times and report the median: one set-up of about a
	// second moves by a large share of itself from run to run.
	var setupSecs []float64
	for i := 0; i < c.setups; i++ {
		j.close()
		j = newJourney(c.workload)
		id := t.begin("setup", noSpan, noSpan)
		t0 := time.Now()
		err := j.setup(&c, rand.New(rand.NewSource(int64(c.seed))), t, id)
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
		t.end(id)
		if err != nil {
			j.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	defer j.close()

	layer := map[string]float64{}
	if c.trace {
		if err := probeLayers(&c, j, t, layer); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
	}

	m := &meter{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	// A traced run records spans on every other cycle only; the difference
	// between the two halves is the tracing overhead, so it needs a cycle
	// of each.
	minCycles := 1
	if c.trace {
		minCycles = 2
	}
	for cyc := 0; time.Since(start).Seconds() < c.seconds || m.primOps < c.minPrimary || cyc < minCycles; cyc++ {
		if c.trace && cyc%2 == 0 {
			m.beginCycle(true)
			j.cycle(&c, t, m)
		} else {
			m.beginCycle(false)
			j.cycle(&c, nil, m)
		}
	}
	loopSec := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)

	res := &result{
		Correct:   m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   map[string]metricValue{},
		firstErr:  m.firstErr,
	}
	res.info = append(res.info, fmt.Sprintf("GOMAXPROCS=%d primary_ops=%d loop_s=%.2f gc=%d",
		procs, m.primOps, loopSec, after.NumGC-before.NumGC))

	if c.trace {
		ops := float64(m.primOps)
		layer["runtime.gc_per_op"] = float64(after.NumGC-before.NumGC) / ops
		layer["runtime.gc_pause_ms_per_op"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6 / ops
		layer["runtime.heap_peak_mb"] = float64(m.heapPeak) / (1 << 20)
		var traced, plain []cycleStat
		for _, cy := range m.cycles {
			if cy.traced {
				traced = append(traced, cy)
			} else {
				plain = append(plain, cy)
			}
		}
		layer["bench.trace_overhead_pct"] = (median(latencies(quiet(traced, quietRates, primaryCost)))/
			median(latencies(quiet(plain, quietRates, primaryCost))) - 1) * 100
		for _, s := range perLayer {
			v, ok := layer[s.Name]
			if !ok {
				return nil, fmt.Errorf("per-layer metric %s was not measured", s.Name)
			}
			res.Metrics[s.Name] = metricValue{v, s.Unit}
		}
		if err := t.write(c.traceFile, c.workload, c.seed); err != nil {
			return nil, err
		}
		res.info = append(res.info, "spans written to "+c.traceFile)
		return res, nil
	}

	var work, sec, altWork, altSec float64
	kept := quiet(m.cycles, quietRates, primaryCost)
	for _, cy := range kept {
		work += cy.work
		sec += cy.sec
	}
	for _, cy := range quiet(m.cycles, quietRates, altCost) {
		altWork += cy.altWork
		altSec += cy.altSec
	}
	bytes, stmts := sizeOf(j.recordings())
	e2e := map[string]float64{
		"setup_s":             median(setupSecs),
		"work_per_s":          work / sec,
		"alt_work_per_s":      altWork / altSec,
		"op_ms":               median(latencies(kept)),
		"op_tail_ms":          quantile(latencies(quiet(m.cycles, quietTail, primaryCost)), j.tailQuantile()),
		"alloc_kb_per_op":     float64(m.allocBytes) / 1024 / float64(m.primOps),
		"wet_bytes_per_kstmt": float64(bytes) * 1000 / float64(stmts),
	}
	for _, s := range endToEnd {
		res.Metrics[s.Name] = metricValue{e2e[s.Name], s.Unit}
	}
	return res, nil
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the nearest-rank quantile: with 100 samples, q=0.9 has
// exactly 10 samples beyond it.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}
