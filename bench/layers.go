package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"time"

	"wet"
	"wet/internal/core"
	"wet/internal/corpus"
	"wet/internal/interp"
	"wet/internal/serve"
	"wet/internal/stream"
	"wet/internal/trace"
	"wet/internal/wetio"
	"wet/internal/workload"
)

// The layer probes of the traced run. Each per-layer metric is a span
// around an exported function of one layer (layer = module directory),
// called on the workload's own inputs: its programs, its containers, its
// traces. Nothing inside the layers is instrumented.

type prober struct {
	t    *tracer
	root int
	reps int
	rng  *rand.Rand
	err  error // the first error of any probe
}

func (p *prober) keep(err error) {
	if p.err == nil {
		p.err = err
	}
}

// timed runs prep (untimed, may be nil) and f (under a span) reps times
// and returns f's median duration in seconds.
func (p *prober) timed(name string, prep, f func()) float64 {
	secs := make([]float64, p.reps)
	for i := range secs {
		if prep != nil {
			prep()
		}
		id := p.t.begin(name, p.root, noSpan)
		t0 := time.Now()
		f()
		secs[i] = time.Since(t0).Seconds()
		p.t.end(id)
	}
	return median(secs)
}

// parallel runs a Workers 1-against-2 probe with a second processor, which
// the single-threaded workloads otherwise run without.
func (p *prober) parallel(probe func() float64) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(runtime.NumCPU(), 2)))
	return probe()
}

// allocsOf returns the bytes and objects f allocates.
func allocsOf(f func()) (bytes, objects uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc, b.Mallocs - a.Mallocs
}

const (
	probeCriteria = 5   // slices per probe batch
	probeWindows  = 64  // cfrange windows per probe
	probeRequests = 512 // requests per serve probe
	probeSeeks    = 2000
)

func probeLayers(c *config, j journey, t *tracer, out map[string]float64) error {
	p := &prober{t: t, reps: c.probeReps, rng: rand.New(rand.NewSource(int64(c.seed) + 1))}
	p.root = t.begin("probes", noSpan, noSpan)
	defer t.end(p.root)

	recs := j.recordings()
	r := recs[0]
	pw, err := p.buildLayers(recs, out)
	if err != nil {
		return err
	}
	p.streamLayer(pw, out)
	if err := p.wetioLayer(r, out); err != nil {
		return err
	}
	if err := p.queryLayer(r, pw, out); err != nil {
		return err
	}
	return p.serveLayers(recs, out)
}

// buildLayers probes workload, interp, trace and core on the first
// program, and returns its single-epoch WET with tier 1 kept, which the
// stream and query probes read.
func (p *prober) buildLayers(recs []*recording, out map[string]float64) (*core.WET, error) {
	gen := p.timed("workload.Build", nil, func() {
		for _, r := range recs {
			wl, e := workload.ByName(r.spec.name)
			p.keep(e)
			wl.Build(r.spec.scale)
		}
	})
	ana := p.timed("interp.Analyze", nil, func() {
		for _, r := range recs {
			_, e := interp.Analyze(r.prog)
			p.keep(e)
		}
	})
	out["workload.gen_ms"] = gen * 1e3
	out["interp.analyze_ms"] = ana * 1e3

	r := recs[0]
	n := float64(r.stmts)
	opts := interp.Options{Inputs: r.inputs}
	bare := func() {
		_, e := interp.Run(r.static, opts)
		p.keep(e)
	}
	out["interp.run_ns_per_stmt"] = p.timed("interp.Run", nil, bare) * 1e9 / n
	_, objs := allocsOf(bare)
	out["interp.run_allocs_per_kstmt"] = float64(objs) * 1e3 / n
	out["trace.count_ns_per_stmt"] = p.timed("interp.Run+trace.Counting", nil, func() {
		o := opts
		o.Sink = trace.NewCounting(nil)
		_, e := interp.Run(r.static, o)
		p.keep(e)
	}) * 1e9 / n

	var w *core.WET
	build := func() {
		var e error
		w, _, e = core.Build(r.static, opts)
		p.keep(e)
	}
	buildS := p.timed("core.Build", nil, build)
	bytes, objs := allocsOf(build)
	out["core.build_ns_per_stmt"] = buildS * 1e9 / n
	out["core.build_alloc_b_per_stmt"] = float64(bytes) / n
	out["core.build_allocs_per_kstmt"] = float64(objs) * 1e3 / n
	if p.err != nil {
		return nil, p.err
	}

	freeze := func(workers int) func() {
		return func() {
			_, e := w.FreezeErr(core.FreezeOptions{Workers: workers})
			p.keep(e)
		}
	}
	out["core.freeze_par_ratio"] = p.parallel(func() float64 {
		return p.timed("WET.FreezeErr.workers1.of2", build, freeze(1)) / p.timed("WET.FreezeErr.workers2.of2", build, freeze(2))
	})
	freeze1 := p.timed("WET.FreezeErr.workers1", build, freeze(1))
	pw := w // frozen serially, tier 1 kept
	out["core.freeze_ns_per_stmt"] = freeze1 * 1e9 / n
	streamS := p.timed("core.BuildStreaming", nil, func() {
		_, _, _, e := core.BuildStreaming(r.static, opts, core.FreezeOptions{EpochTS: 1 << 12})
		p.keep(e)
	})
	out["core.stream_build_ns_per_stmt"] = streamS * 1e9 / n
	out["core.seal_overhead_ratio"] = streamS / (buildS + freeze1)
	if p.err != nil {
		return nil, p.err
	}
	rep := pw.Report()
	out["core.t1_bytes_per_kstmt"] = float64(rep.T1Total()) * 1e3 / n
	out["core.t2_bytes_per_kstmt"] = float64(rep.T2Total()) * 1e3 / n
	return pw, nil
}

// streamLayer probes the tier-2 stream kernels on the label sequences of
// pw: node timestamps, group patterns, unique values and edge labels.
func (p *prober) streamLayer(pw *core.WET, out map[string]float64) {
	var vals [][]uint32
	var streams []stream.Stream
	add := func(v []uint32, s stream.Stream) {
		if len(v) > 0 && s != nil {
			vals = append(vals, v)
			streams = append(streams, s)
		}
	}
	for _, n := range pw.Nodes {
		add(n.TS, n.TSS)
		for _, g := range n.Groups {
			add(g.Pattern, g.PatternS)
			for i, uv := range g.UVals {
				add(uv, g.UValS[i])
			}
		}
	}
	for _, e := range pw.Edges {
		add(e.DstOrd, e.DstS)
		add(e.SrcOrd, e.SrcS)
	}
	total := 0
	for _, v := range vals {
		total += len(v)
	}
	nv := float64(total)

	sc := stream.NewScratch()
	out["stream.size_best_ns_per_val"] = p.timed("stream.SizeBest", nil, func() {
		for _, v := range vals {
			stream.SizeBest(v, sc)
		}
	}) * 1e9 / nv
	var bits uint64
	out["stream.compress_ns_per_val"] = p.timed("stream.CompressBestScratch", nil, func() {
		bits = 0
		for _, v := range vals {
			bits += stream.CompressBestScratch(v, sc).SizeBits()
		}
	}) * 1e9 / nv
	sc.Release()
	out["stream.bits_per_val"] = float64(bits) / nv

	buf := make([]uint32, 4096)
	out["stream.next_ns_per_val"] = p.timed("Cursor.NextN", nil, func() {
		for _, s := range streams {
			for c := s.NewCursor(); c.NextN(buf) > 0; {
			}
		}
	}) * 1e9 / nv
	out["stream.prev_ns_per_val"] = p.timed("Cursor.PrevN", nil, func() {
		for _, s := range streams {
			c := s.NewCursor()
			for c.Seek(c.Len()); c.PrevN(buf) > 0; {
			}
		}
	}) * 1e9 / nv
	var sink uint32
	out["stream.step_ns"] = p.timed("Cursor.Next", nil, func() {
		for _, s := range streams {
			c := s.NewCursor()
			for i := c.Len(); i > 0; i-- {
				sink += c.Next()
			}
		}
	}) * 1e9 / nv
	_ = sink

	// Seeded random seeks over the streams long enough to have checkpoints.
	var long []stream.Cursor
	for _, s := range streams {
		if s.Len() >= 1024 {
			long = append(long, s.NewCursor())
		}
	}
	if len(long) == 0 {
		long = append(long, streams[0].NewCursor())
	}
	type seek struct{ cur, pos int }
	plan := make([]seek, probeSeeks)
	for i := range plan {
		cur := p.rng.Intn(len(long))
		plan[i] = seek{cur, p.rng.Intn(long[cur].Len() + 1)}
	}
	out["stream.seek_us"] = p.timed("Cursor.Seek", nil, func() {
		for _, sk := range plan {
			long[sk.cur].Seek(sk.pos)
		}
	}) * 1e6 / probeSeeks
}

// wetioLayer probes the container on the workload's own first trace.
func (p *prober) wetioLayer(r *recording, out map[string]float64) error {
	save := p.timed("wetio.Save", nil, func() {
		var b bytes.Buffer
		p.keep(wetio.Save(&b, r.tr.WET()))
	})
	out["wetio.save_ms"] = save * 1e3
	out["wetio.save_mb_per_s"] = float64(len(r.data)) / 1e6 / save
	out["wetio.verify_ms"] = p.timed("wetio.Verify", nil, func() {
		res, e := wetio.Verify(bytes.NewReader(r.data))
		p.keep(e)
		if e == nil && !res.OK() {
			p.keep(fmt.Errorf("%s: container fails verification", r.spec.name))
		}
	}) * 1e3
	load := func(o wetio.LoadOptions) func() {
		return func() {
			_, e := wetio.Load(bytes.NewReader(r.data), o)
			p.keep(e)
		}
	}
	eager := p.timed("wetio.Load.eager", nil, load(wetio.LoadOptions{Workers: 1}))
	out["wetio.load_eager_ms"] = eager * 1e3
	out["wetio.load_lazy_ms"] = p.timed("wetio.Load.lazy", nil, load(wetio.LoadOptions{Workers: 1, Lazy: true})) * 1e3
	out["wetio.load_par_ratio"] = p.parallel(func() float64 {
		return p.timed("wetio.Load.workers1.of2", nil, load(wetio.LoadOptions{Workers: 1})) /
			p.timed("wetio.Load.workers2.of2", nil, load(wetio.LoadOptions{Workers: 2}))
	})
	b, _ := allocsOf(load(wetio.LoadOptions{Workers: 1}))
	out["wetio.load_alloc_kb"] = float64(b) / 1024
	payload := float64(r.tr.Report().Size.T2Total())
	out["wetio.container_overhead_pct"] = (float64(len(r.data)) - payload) / payload * 100
	return p.err
}

// queryLayer probes extraction on the reopened container and slicing on
// the single-epoch WET pw, where tier 1 is there to compare against.
func (p *prober) queryLayer(r *recording, pw *core.WET, out map[string]float64) error {
	ot, _, e := wet.Open(bytes.NewReader(r.data))
	if e != nil {
		return e
	}
	n := float64(r.stmts)
	out["query.cf_fwd_ns_per_stmt"] = p.timed("query.ExtractCF.forward", nil, func() { p.keep(r.checkCF(ot, true)) }) * 1e9 / n
	out["query.cf_bwd_ns_per_stmt"] = p.timed("query.ExtractCF.backward", nil, func() { p.keep(r.checkCF(ot, false)) }) * 1e9 / n
	var samples uint64
	s := p.timed("query.LoadValueTraces", nil, func() {
		var e error
		samples, e = r.checkValues(ot)
		p.keep(e)
	})
	out["query.values_ns_per_sample"] = s * 1e9 / float64(samples)
	s = p.timed("query.AddressTraces", nil, func() {
		var e error
		samples, e = r.checkAddrs(ot)
		p.keep(e)
	})
	out["query.addrs_ns_per_sample"] = s * 1e9 / float64(samples)

	pt := wet.NewTrace(pw)
	t1 := pt.AtTier(wet.Tier1)
	cf2 := p.timed("query.ExtractCF.tier2", nil, func() { p.keep(r.checkCF(pt, true)) })
	cf1 := p.timed("query.ExtractCF.tier1", nil, func() { p.keep(r.checkCF(t1, true)) })
	out["query.cf_t2_over_t1"] = cf2 / cf1

	windows := seededWindows(r, p.rng, probeWindows, serveWindow)
	out["query.cfrange_us"] = p.timed("query.ExtractCFRange", nil, func() {
		for _, w := range windows {
			p.keep(r.checkWindow(ot, w))
		}
	}) * 1e6 / probeWindows
	if p.err != nil {
		return p.err
	}

	crit, e := pickCriteria(r, pt, p.rng, probeCriteria, 1)
	if e != nil {
		return e
	}
	batch := func(tr *wet.Trace, insts *int) func() {
		return func() {
			*insts = 0
			for _, in := range crit {
				res, e := tr.Backward(in, 0)
				p.keep(e)
				if e == nil {
					*insts += len(res.Instances)
				}
			}
		}
	}
	var n2, n1 int
	before := pt.SeekStats()
	batch(pt, &n2)()
	seeks := pt.SeekStats().Sub(before)
	b2 := p.timed("query.BackwardSlice.tier2", nil, batch(pt, &n2))
	b1 := p.timed("query.BackwardSlice.tier1", nil, batch(t1, &n1))
	if n1 != n2 {
		p.keep(fmt.Errorf("%s: tier-2 slices visit %d instances, tier 1 %d", r.spec.name, n2, n1))
	}
	out["query.bslice_ns_per_inst"] = b2 * 1e9 / float64(n2)
	out["query.bslice_t2_over_t1"] = b2 / b1
	out["stream.seeks_per_op"] = float64(seeks.Seeks)
	out["stream.steps_per_seek"] = float64(seeks.Steps) / float64(max(seeks.Seeks, 1))
	out["stream.restores_per_seek"] = float64(seeks.Restores) / float64(max(seeks.Seeks, 1))

	var nf int
	f := p.timed("query.ForwardSlice", nil, func() {
		nf = 0
		for _, in := range crit {
			res, e := pt.Forward(in, forwardCap)
			p.keep(e)
			if e == nil {
				nf += len(res.Instances)
			}
		}
	})
	out["query.fslice_us_per_inst"] = f * 1e6 / float64(nf)

	type stmtAt struct {
		stmt int
		ts   uint32
	}
	at := make([]stmtAt, len(crit))
	for i, in := range crit {
		node := pw.Nodes[in.Node]
		at[i] = stmtAt{node.Stmts[in.Pos].ID, core.SeqAt(pw.TSSeq(node, core.Tier2), in.Ord)}
	}
	out["query.instance_of_ts_us"] = p.timed("query.InstanceOfTS", nil, func() {
		for i, a := range at {
			in, e := pt.InstanceOfTS(a.stmt, a.ts)
			p.keep(e)
			if e == nil && in != crit[i] {
				p.keep(fmt.Errorf("%s: InstanceOfTS(%d, %d) = %+v, want %+v", r.spec.name, a.stmt, a.ts, in, crit[i]))
			}
		}
	}) * 1e6 / float64(len(at))
	return p.err
}

// serveLayers probes corpus, serve and metrics: the workload's containers
// behind a starved segment cache, queried in-process and over HTTP.
func (p *prober) serveLayers(recs []*recording, out map[string]float64) error {
	var corp *corpus.Corpus
	out["corpus.add_ms"] = p.timed("corpus.Add", func() { corp = corpus.New(serveStarved) }, func() {
		for _, r := range recs {
			_, e := corp.Add(r.spec.name, r.data)
			p.keep(e)
		}
	}) * 1e3
	if p.err != nil {
		return p.err
	}
	srv := serve.New(corp, serve.Options{Workers: 2, Queue: 16})

	// cfrange requests, 80% in the hot tenth of each trace.
	type req struct {
		name   string
		params url.Values
	}
	reqs := make([]req, probeRequests)
	for i := range reqs {
		r := recs[p.rng.Intn(len(recs))]
		from := hotOffset(p.rng, r.log.time())
		reqs[i] = req{r.spec.name, url.Values{
			"from":  {strconv.Itoa(int(from))},
			"to":    {strconv.Itoa(int(from + serveWindow - 1))},
			"limit": {strconv.Itoa(serveItems)},
		}}
	}
	ctx := context.Background()
	results := make([]any, len(reqs))
	lat := make([]float64, len(reqs))
	st0, pool0 := corp.Stats(), srv.PoolStats()
	id := p.t.begin("serve.Server.Query", p.root, noSpan)
	for i, rq := range reqs {
		t0 := time.Now()
		res, e := srv.Query(ctx, rq.name, "cfrange", rq.params)
		lat[i] = float64(time.Since(t0)) / 1e3
		p.keep(e)
		results[i] = res
	}
	p.t.end(id)
	st1, pool1 := corp.Stats(), srv.PoolStats()
	if p.err != nil {
		return p.err
	}
	kreq := float64(len(reqs)) / 1e3
	hits, misses := float64(st1.Hits-st0.Hits), float64(st1.Misses-st0.Misses)
	out["corpus.hit_rate"] = hits / max(hits+misses, 1)
	out["corpus.segment_loads_per_kreq"] = misses / kreq
	out["corpus.evictions_per_kreq"] = float64(st1.Evictions-st0.Evictions) / kreq
	out["serve.shed_per_kreq"] = float64(pool1.Shed-pool0.Shed) / kreq
	inproc := median(lat)
	out["serve.query_us"] = inproc

	enc := make([]float64, len(results))
	id = p.t.begin("json.Marshal", p.root, noSpan)
	for i, res := range results {
		t0 := time.Now()
		_, e := json.Marshal(res)
		enc[i] = float64(time.Since(t0)) / 1e3
		p.keep(e)
	}
	p.t.end(id)
	out["serve.json_encode_us"] = median(enc)

	// The same requests over HTTP from one sequential client.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := newClient()
	defer client.CloseIdleConnections()
	get := func(rq req) {
		resp, e := client.Get(ts.URL + "/v1/traces/" + rq.name + "/cfrange?" + rq.params.Encode())
		if e != nil {
			p.keep(e)
			return
		}
		_, e = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		p.keep(e)
		if resp.StatusCode != http.StatusOK {
			p.keep(fmt.Errorf("probe request: status %d", resp.StatusCode))
		}
	}
	id = p.t.begin("http.GET.cfrange", p.root, noSpan)
	for i, rq := range reqs {
		t0 := time.Now()
		get(rq)
		lat[i] = float64(time.Since(t0)) / 1e3
	}
	p.t.end(id)
	out["serve.http_overhead_us"] = median(lat) - inproc

	// Two concurrent clients, to see the admission queue fill.
	var peak int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	id = p.t.begin("http.GET.cfrange.concurrent", p.root, noSpan)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(reqs); i += serveClients {
				_, e := srv.Query(ctx, reqs[i].name, "cfrange", reqs[i].params)
				ps := srv.PoolStats()
				mu.Lock()
				p.keep(e)
				peak = max(peak, ps.Waiting+ps.Active)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	p.t.end(id)
	out["serve.queue_peak"] = float64(peak)

	// The same query warm, then after dropping every decoded segment.
	cold := reqs[0]
	var warmUS, coldUS []float64
	id = p.t.begin("corpus.EvictAll+Query", p.root, noSpan)
	for i := 0; i < 16; i++ {
		_, e := srv.Query(ctx, cold.name, "cfrange", cold.params)
		p.keep(e)
		t0 := time.Now()
		_, e = srv.Query(ctx, cold.name, "cfrange", cold.params)
		warmUS = append(warmUS, float64(time.Since(t0))/1e3)
		p.keep(e)
		corp.EvictAll()
		t0 = time.Now()
		_, e = srv.Query(ctx, cold.name, "cfrange", cold.params)
		coldUS = append(coldUS, float64(time.Since(t0))/1e3)
		p.keep(e)
	}
	p.t.end(id)
	out["corpus.cold_penalty_us"] = median(coldUS) - median(warmUS)

	out["metrics.scrape_ms"] = p.timed("metrics.Registry.WriteText", nil, func() {
		p.keep(srv.Registry().WriteText(io.Discard))
	}) * 1e3
	return p.err
}
