package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"wet"
	"wet/internal/corpus"
	"wet/internal/query"
	"wet/internal/serve"
)

// serveJourney is journey 3: HTTP request -> wetd's stack -> JSON response.
// Two closed-loop clients walk a seeded schedule of data-touching requests
// only (with metadata lookups in the mix the median request is a 10 us
// registry read): 60% cfrange, 20% valuetrace, 20% backward, 80% of the
// offsets inside a hot tenth of each trace. The primary side serves from a
// segment cache smaller than the hot set, so segments evict and reload; the
// alternate side has everything resident.
type serveJourney struct {
	recs  []*recording
	refs  []*wet.Trace // uncached eager opens of the same bytes
	sched []request
	sides [2]*side // 0 starved (primary), 1 warm (alternate)

	primaryN, altN, warmN int
}

const (
	serveClients     = 2 // no more than the cores the run is pinned to
	serveEpochTS     = 1 << 8
	serveStarved     = 16 << 10  // bytes of decoded segments the primary side may keep
	serveWarm        = 256 << 20 // the alternate side keeps everything
	serveSchedule    = 8192      // distinct requests; clients walk them in order
	serveSampleEvery = 64        // one response in this many is compared to the reference
	serveWindow      = 256       // timestamps per cfrange request
	serveItems       = 64        // limit= of cfrange and valuetrace
	serveSliceMax    = 128       // max= of backward
)

func serveProgs() []progSpec {
	return []progSpec{{"li", 2, serveEpochTS}, {"gzip", 1, serveEpochTS}, {"mcf", 1, serveEpochTS}}
}

type side struct {
	corp    *corpus.Corpus
	srv     *serve.Server
	ts      *httptest.Server
	clients [serveClients]*http.Client
	next    [serveClients]int // each client's position in the schedule
}

// request is one schedule entry.
type request struct {
	kind string
	path string  // path and query below the server root
	want *answer // the reference answer, for the sampled entries
}

// answer is the part of a response the reference is compared on.
type answer struct {
	Count     int              `json:"count"`
	IDs       []int            `json:"ids"`
	Samples   []query.Sample   `json:"samples"`
	Edges     int              `json:"edges"`
	Instances []query.Instance `json:"instances"`
}

func (a *answer) equal(b *answer) bool {
	return a.Count == b.Count && a.Edges == b.Edges && slices.Equal(a.IDs, b.IDs) &&
		slices.Equal(a.Samples, b.Samples) && slices.Equal(a.Instances, b.Instances)
}

func (j *serveJourney) setup(c *config, rng *rand.Rand, t *tracer, parent int) error {
	j.primaryN, j.altN, j.warmN = 1000, 600, 400
	if c.small {
		j.primaryN, j.altN, j.warmN = 320, 192, 64
	}
	recs, err := recordAll(serveProgs(), t, parent)
	if err != nil {
		return err
	}
	j.recs = recs
	j.refs = make([]*wet.Trace, len(recs))
	for i, r := range recs {
		if j.refs[i], _, err = wet.Open(bytes.NewReader(r.data)); err != nil {
			return err
		}
	}
	for i, budget := range []uint64{serveStarved, serveWarm} {
		s := &side{corp: corpus.New(budget)}
		for _, r := range recs {
			id := t.begin("corpus.Add", parent, noSpan)
			_, err := s.corp.Add(r.spec.name, r.data)
			t.end(id)
			if err != nil {
				return err
			}
		}
		s.srv = serve.New(s.corp, serve.Options{Workers: 2, Queue: 16})
		s.ts = httptest.NewServer(s.srv.Handler())
		for k := range s.clients {
			s.clients[k] = newClient()
		}
		j.sides[i] = s
	}
	id := t.begin("schedule", parent, noSpan)
	err = j.buildSchedule(rng)
	t.end(id)
	if err != nil {
		return err
	}
	for i := 0; i < c.warmups; i++ {
		for _, s := range j.sides {
			blk := j.block(s, j.warmN, nil, 0)
			if blk.err != nil {
				return fmt.Errorf("warm-up: %w", blk.err)
			}
			s.next = [serveClients]int{} // the timed blocks start from the head of the schedule
		}
	}
	return nil
}

// hotOffset draws the first timestamp of a serveWindow-long request on a
// trace of total timestamps: 80% of the draws fall in one tenth of it.
func hotOffset(rng *rand.Rand, total uint32) uint32 {
	span := total - serveWindow
	if rng.Float64() < 0.8 {
		return 1 + span*3/10 + uint32(rng.Int63n(int64(span/10)))
	}
	return 1 + uint32(rng.Int63n(int64(span)))
}

// newClient returns an HTTP client with a connection of its own.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 30 * time.Second}
}

// buildSchedule draws the request schedule and the reference answers of
// the sampled entries.
func (j *serveJourney) buildSchedule(rng *rand.Rand) error {
	loads := make([][]int, len(j.recs))
	for i, r := range j.recs {
		for st := range r.log.loadStmts {
			loads[i] = append(loads[i], st)
		}
		sort.Ints(loads[i])
	}
	j.sched = make([]request, serveSchedule)
	for k := range j.sched {
		ri := rng.Intn(len(j.recs))
		r, ref := j.recs[ri], j.refs[ri]
		from := hotOffset(rng, r.log.time())
		sampled := k%serveSampleEvery == 0
		var rq request
		switch p := rng.Float64(); {
		case p < 0.6:
			to := from + serveWindow - 1
			rq = request{kind: "cfrange", path: fmt.Sprintf("/v1/traces/%s/cfrange?from=%d&to=%d&limit=%d", r.spec.name, from, to, serveItems)}
			if sampled {
				// straight from the oracle's log
				ids := r.log.window(from, to)
				rq.want = &answer{Count: len(ids)}
				for _, id := range ids[:serveItems] {
					rq.want.IDs = append(rq.want.IDs, int(id))
				}
			}
		case p < 0.8:
			stmt := loads[ri][rng.Intn(len(loads[ri]))]
			rq = request{kind: "valuetrace", path: fmt.Sprintf("/v1/traces/%s/valuetrace?stmt=%d&limit=%d", r.spec.name, stmt, serveItems)}
			if sampled {
				rq.want = &answer{}
				n, err := ref.ValueTrace(stmt, func(s query.Sample) {
					if len(rq.want.Samples) < serveItems {
						rq.want.Samples = append(rq.want.Samples, s)
					}
				})
				if err != nil {
					return err
				}
				rq.want.Count = int(n)
			}
		default:
			stmt, ts, err := r.log.defFrom(from)
			if err != nil {
				return fmt.Errorf("%s: %w", r.spec.name, err)
			}
			rq = request{kind: "backward", path: fmt.Sprintf("/v1/traces/%s/backward?stmt=%d&ts=%d&max=%d", r.spec.name, stmt, ts, serveSliceMax)}
			if sampled {
				in, err := ref.InstanceOfTS(stmt, ts)
				if err != nil {
					return err
				}
				res, err := ref.Backward(in, serveSliceMax)
				if err != nil {
					return err
				}
				rq.want = &answer{Count: len(res.Instances), Edges: res.Edges, Instances: res.Instances}
			}
		}
		j.sched[k] = rq
	}
	return nil
}

// blockResult is what one block of requests measured.
type blockResult struct {
	lat    []float64 // request latencies, ms
	failed int
	err    error // the first failure
}

// sampledBody is a response kept for comparison after the block.
type sampledBody struct {
	rq   *request
	body []byte
}

// block sends n requests to s from the closed-loop clients and, once they
// are done, compares the sampled responses to the reference.
func (j *serveJourney) block(s *side, n int, t *tracer, opBase int) blockResult {
	type clientResult struct {
		lat     []float64
		failed  int
		err     error
		sampled []sampledBody
	}
	results := make([]clientResult, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &results[c]
			r.lat = make([]float64, 0, n/serveClients)
			var buf bytes.Buffer
			for k := 0; k < n/serveClients; k++ {
				idx := (s.next[c]*serveClients + c) % len(j.sched)
				s.next[c]++
				rq := &j.sched[idx]
				id := noSpan
				if rq.want != nil {
					id = t.begin("http.GET."+rq.kind, noSpan, opBase+k*serveClients+c)
				}
				t0 := time.Now()
				resp, err := s.clients[c].Get(s.ts.URL + rq.path)
				if err == nil {
					buf.Reset()
					_, err = io.Copy(&buf, resp.Body)
					resp.Body.Close()
				}
				r.lat = append(r.lat, float64(time.Since(t0))/1e6)
				t.end(id)
				switch {
				case err != nil:
				case resp.StatusCode != http.StatusOK:
					err = fmt.Errorf("%s: status %d: %s", rq.path, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
				case rq.want != nil:
					r.sampled = append(r.sampled, sampledBody{rq, append([]byte(nil), buf.Bytes()...)})
				}
				if err != nil {
					r.failed++
					if r.err == nil {
						r.err = err
					}
				}
			}
		}(c)
	}
	wg.Wait()

	var out blockResult
	for _, r := range results {
		out.lat = append(out.lat, r.lat...)
		out.failed += r.failed
		if out.err == nil {
			out.err = r.err
		}
		for _, sb := range r.sampled {
			var env struct {
				Result answer `json:"result"`
			}
			err := json.Unmarshal(sb.body, &env)
			if err == nil && !env.Result.equal(sb.rq.want) {
				err = fmt.Errorf("%s: answer differs from the reference", sb.rq.path)
			}
			if err != nil {
				out.failed++
				if out.err == nil {
					out.err = err
				}
			}
		}
	}
	return out
}

func (j *serveJourney) cycle(_ *config, t *tracer, m *meter) {
	var blk blockResult
	base := m.nextOp
	m.nextOp += j.primaryN
	sec, alloc := m.measure(func() { blk = j.block(j.sides[0], j.primaryN, t, base) })
	m.attempted += j.primaryN
	m.noteBlock(blk)
	cy := m.cur()
	cy.lat = blk.lat
	cy.work += float64(j.primaryN)
	cy.sec += sec
	m.allocBytes += alloc
	m.primOps += j.primaryN

	base = m.nextOp
	m.nextOp += j.altN
	sec, _ = m.measure(func() { blk = j.block(j.sides[1], j.altN, t, base) })
	m.attempted += j.altN
	m.noteBlock(blk)
	cy.altWork += float64(j.altN)
	cy.altSec += sec
}

// noteBlock counts a block's failed requests.
func (m *meter) noteBlock(blk blockResult) {
	m.failed += blk.failed
	if m.firstErr == nil {
		m.firstErr = blk.err
	}
}

func (j *serveJourney) tailQuantile() float64    { return 0.99 }
func (j *serveJourney) procs() int               { return min(runtime.NumCPU(), serveClients) }
func (j *serveJourney) recordings() []*recording { return j.recs }

func (j *serveJourney) close() {
	for _, s := range j.sides {
		if s == nil || s.ts == nil {
			continue
		}
		for _, c := range s.clients {
			c.CloseIdleConnections()
		}
		s.ts.Close()
	}
}
