package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"wet"
	"wet/internal/core"
	"wet/internal/corpus"
	"wet/internal/faultpoint"
	"wet/internal/ir"
	"wet/internal/stream"
	"wet/internal/workload"
)

// testCorpus builds a corpus of the named workloads (epoch-segmented).
func testCorpus(tb testing.TB, budget uint64, names ...string) *corpus.Corpus {
	tb.Helper()
	c := corpus.New(budget)
	for _, n := range names {
		wl, err := workload.ByName(n)
		if err != nil {
			tb.Fatal(err)
		}
		prog, in := wl.Build(1)
		tr, _, err := wet.Run(prog, wet.WithInputs(in...), wet.WithEpochTS(1<<8))
		if err != nil {
			tb.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			tb.Fatal(err)
		}
		if _, err := c.Add(n, buf.Bytes()); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

func getJSON(tb testing.TB, url string) (int, map[string]any) {
	tb.Helper()
	resp, err := http.Get(url)
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		tb.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode, body
}

func TestServerEndpoints(t *testing.T) {
	c := testCorpus(t, 0, "li")
	s := New(c, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Every query endpoint answers 200 on a valid trace.
	params := map[string]string{
		"cfrange":    "?from=1&to=64",
		"valuetrace": "?stmt=0&limit=4",
		"addrtrace":  "?stmt=0&limit=4",
		"instance":   "?stmt=0&ts=1",
		"backward":   "?stmt=0&ts=1&max=16",
		"forward":    "?stmt=0&ts=1&max=16",
		"chop":       "?from_stmt=0&from_ts=1&to_stmt=0&to_ts=1&max=16",
		"depchain":   "?stmt=0&ts=1",
		"dot":        "?stmt=0&ts=1&max=16",
	}
	for _, q := range Queries() {
		code, body := getJSON(t, ts.URL+"/v1/traces/li/"+q+params[q])
		// Parameterized queries may legitimately 400/500 on stmt 0 if it is
		// not a def; what they must never do is 404, shed, or crash.
		if code != 200 && code != 400 && code != 500 {
			t.Errorf("query %s: status %d body %v", q, code, body)
		}
		if q == "info" && code != 200 {
			t.Fatalf("info: status %d body %v", code, body)
		}
	}

	// Listing, stats, health, metrics.
	code, body := getJSON(t, ts.URL+"/v1/traces")
	if code != 200 || len(body["traces"].([]any)) != 1 {
		t.Fatalf("traces listing: %d %v", code, body)
	}
	key := body["traces"].([]any)[0].(map[string]any)["key"].(string)
	if code, _ := getJSON(t, ts.URL+"/v1/traces/"+key[:12]); code != 200 {
		t.Fatalf("key-prefix lookup failed: %d", code)
	}
	if code, _ := getJSON(t, ts.URL+"/v1/stats"); code != 200 {
		t.Fatalf("stats: %d", code)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := readAll(resp)
	if resp.StatusCode != 200 || !strings.Contains(raw, "wetd_cache_misses_total") ||
		!strings.Contains(raw, "wetd_request_seconds_bucket") {
		t.Fatalf("metrics exposition incomplete (status %d):\n%.500s", resp.StatusCode, raw)
	}

	// Error mapping.
	if code, body := getJSON(t, ts.URL+"/v1/traces/nope/info"); code != 404 || body["kind"] != "not_found" {
		t.Fatalf("unknown trace: %d %v", code, body)
	}
	if code, body := getJSON(t, ts.URL+"/v1/traces/li/bogus"); code != 400 || body["kind"] != "bad_request" {
		t.Fatalf("unknown query: %d %v", code, body)
	}
	if code, _ := getJSON(t, ts.URL+"/v1/traces/li/cfrange"); code != 400 {
		t.Fatalf("missing params: %d", code)
	}
	// A statement id the program does not have is the client's mistake: it
	// used to index a table with it and drop the connection.
	for _, q := range []string{"valuetrace", "addrtrace", "instance", "backward"} {
		for _, stmt := range []string{"999999", "-1"} {
			code, body := getJSON(t, ts.URL+"/v1/traces/li/"+q+"?ts=1&stmt="+stmt)
			if code != 400 || body["kind"] != "bad_request" {
				t.Fatalf("%s?stmt=%s: %d %v", q, stmt, code, body)
			}
		}
	}
}

func readAll(resp *http.Response) (string, error) {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// TestQueryResults spot-checks real payloads: the cf count matches the
// trace's own walk, a capped value or address trace is the library's
// prefix, and hotpaths returns ranked rows.
func TestQueryResults(t *testing.T) {
	c := testCorpus(t, 0, "li")
	s := New(c, Options{})
	e := c.Entries()[0]
	want := e.Trace.ExtractControlFlow(true, nil)

	res, err := s.Query(context.Background(), "li", "cf", url.Values{"limit": {"8"}})
	if err != nil {
		t.Fatal(err)
	}
	m := res.(map[string]any)
	if m["count"].(uint64) != want {
		t.Fatalf("cf count %v != %d", m["count"], want)
	}
	if len(m["ids"].([]int)) != 8 || m["truncated"] != true {
		t.Fatalf("cf limit not applied: %v", m)
	}

	// A capped sample trace returns the library's whole count, the first
	// samples of its trace, and says it was truncated.
	stmt := longLoad(t, e.Trace.WET())
	for _, q := range []string{"valuetrace", "addrtrace"} {
		var all []wet.Sample
		trace := e.Trace.ValueTrace
		if q == "addrtrace" {
			trace = e.Trace.AddressTrace
		}
		n, err := trace(stmt, func(sm wet.Sample) { all = append(all, sm) })
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Query(context.Background(), "li", q, url.Values{"stmt": {strconv.Itoa(stmt)}, "limit": {"4"}})
		if err != nil {
			t.Fatal(err)
		}
		m := res.(map[string]any)
		if m["count"].(uint64) != n || !slices.Equal(m["samples"].([]wet.Sample), all[:4]) || m["truncated"] != true {
			t.Fatalf("%s?limit=4 = %v, want count %d and samples %v", q, m, n, all[:4])
		}
	}

	res, err = s.Query(context.Background(), "li", "hotpaths", url.Values{"n": {"3"}})
	if err != nil {
		t.Fatal(err)
	}
	if hp := res.([]wet.HotPath); len(hp) == 0 || hp[0].Execs == 0 {
		t.Fatalf("hotpaths empty: %v", res)
	}

	// depchain?op=-1 starts along the control dependence: from a statement a
	// branch guards, the second link is that branch. It used to return the
	// start alone.
	w, found := e.Trace.WET(), false
	for _, ed := range w.Edges {
		dst := w.Nodes[ed.DstNode]
		for ord := 0; ed.Kind == core.CD && !found && ord < min(dst.Execs, 16); ord++ {
			want, err := e.Trace.DependenceChain(wet.Instance{Node: ed.DstNode, Pos: ed.DstPos, Ord: ord}, -1, 3)
			if err != nil || len(want) < 2 || want[1].Node != ed.SrcNode || want[1].Pos != ed.SrcPos {
				continue // this edge did not fire at that execution
			}
			ts := core.SeqAt(w.TSSeq(dst, e.Trace.Tier()), ord)
			res, err := s.Query(context.Background(), "li", "depchain", url.Values{"op": {"-1"}, "maxlen": {"3"},
				"stmt": {strconv.Itoa(dst.Stmts[ed.DstPos].ID)}, "ts": {strconv.FormatUint(uint64(ts), 10)}})
			if err != nil {
				t.Fatal(err)
			}
			if got := res.(map[string]any)["chain"].([]wet.Instance); !slices.Equal(got, want) {
				t.Fatalf("depchain?op=-1 = %v, want %v", got, want)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no control dependence fired in the first executions of any li node")
	}
}

// longLoad returns the load of w that executes most often.
func longLoad(tb testing.TB, w *core.WET) int {
	tb.Helper()
	stmt, most := -1, uint64(0)
	for _, st := range w.Prog.Stmts {
		if n := uint64(0); st.Op == ir.OpLoad {
			for _, ref := range w.StmtOcc[st.ID] {
				n += uint64(w.Nodes[ref.Node].Execs)
			}
			if n > most {
				stmt, most = st.ID, n
			}
		}
	}
	if most <= 4 {
		tb.Fatalf("no load executes more than 4 times")
	}
	return stmt
}

// TestTraceDeadline: an uncapped value trace past its deadline returns the
// deadline's cause instead of holding its worker to the end of the trace,
// and the worker is released.
func TestTraceDeadline(t *testing.T) {
	c := testCorpus(t, 0, "li")
	s := New(c, Options{Deadline: time.Nanosecond, MaxItems: math.MaxInt})
	stmt := longLoad(t, c.Entries()[0].Trace.WET())
	for range 16 {
		_, err := s.Query(context.Background(), "li", "valuetrace", url.Values{"stmt": {strconv.Itoa(stmt)}})
		if !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "wetd: deadline") {
			t.Fatalf("valuetrace past a 1ns deadline returned %v, want the deadline's cause", err)
		}
	}
	if st := s.PoolStats(); st.Active != 0 {
		t.Fatalf("pool stats %+v after the deadline, want no active query", st)
	}
}

// TestPoolRefusesExpired: a request whose deadline passed before it reached
// the pool returns the deadline's cause and never runs, although a worker is
// free.
func TestPoolRefusesExpired(t *testing.T) {
	p := newPool(4, 4)
	cause := errors.New("expired upstream")
	ctx, cancel := context.WithDeadlineCause(context.Background(), time.Now().Add(-time.Second), cause)
	defer cancel()
	for k := range 100 {
		if err := p.Do(ctx, func() error { return nil }); !errors.Is(err, cause) {
			t.Fatalf("request %d under an expired context returned %v, want its cause", k, err)
		}
	}
	if st := p.stats(); st.Done != 0 || st.Active != 0 || st.Waiting != 0 || st.Shed != 0 {
		t.Fatalf("pool stats %+v, want no request run, waiting or shed", st)
	}
}

func TestPoolShedding(t *testing.T) {
	p := newPool(1, 1)
	block := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup

	// Occupy the worker.
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = p.Do(context.Background(), func() error {
			close(started)
			<-block
			return nil
		})
	}()
	<-started

	// Fill the queue with one waiter.
	waiting := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		waiting <- p.Do(context.Background(), func() error { return nil })
	}()
	for p.waiting.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	// Queue full: the next request sheds immediately.
	err := p.Do(context.Background(), func() error { return nil })
	var she *ShedError
	if !errors.As(err, &she) || !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overload returned %v, want ShedError(queue full)", err)
	}

	close(block)
	if err := <-waiting; err != nil {
		t.Fatalf("queued request failed: %v", err)
	}
	wg.Wait()
	if st := p.stats(); st.Shed != 1 || st.Done != 2 {
		t.Fatalf("pool stats %+v, want Shed=1 Done=2", st)
	}
}

// TestPoolQueueCancel: a waiter whose context dies while queued abandons
// the queue with the context's cause, not a shed.
func TestPoolQueueCancel(t *testing.T) {
	p := newPool(1, 4)
	block := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = p.Do(context.Background(), func() error {
			close(started)
			<-block
			return nil
		})
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		cancelled <- p.Do(ctx, func() error { return nil })
	}()
	for p.waiting.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-cancelled; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v", err)
	}
	close(block)
	wg.Wait()
	if st := p.stats(); st.Shed != 0 || st.Done != 1 || st.Waiting != 0 {
		t.Fatalf("pool stats %+v, want Shed=0 Done=1 Waiting=0", st)
	}
}

func TestAdmitFaultpoint(t *testing.T) {
	c := testCorpus(t, 0, "li")
	s := New(c, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := faultpoint.Arm("wetd.admit", faultpoint.Spec{Action: faultpoint.ActErr, Detail: "overload drill"}); err != nil {
		t.Fatal(err)
	}
	defer faultpoint.DisarmAll()

	_, err := s.Query(context.Background(), "li", "info", nil)
	var she *ShedError
	if !errors.As(err, &she) {
		t.Fatalf("armed wetd.admit returned %v, want *ShedError", err)
	}
	var fe *faultpoint.Error
	if !errors.As(err, &fe) || fe.Point != "wetd.admit" {
		t.Fatalf("shed cause lost: %v", err)
	}
	if code, body := getJSON(t, ts.URL+"/v1/traces/li/info"); code != 503 || body["kind"] != "shed" {
		t.Fatalf("HTTP mapping of shed: %d %v", code, body)
	}

	faultpoint.DisarmAll()
	if _, err := s.Query(context.Background(), "li", "info", nil); err != nil {
		t.Fatalf("still failing after disarm: %v", err)
	}
	if s.PoolStats().Shed == 0 {
		t.Fatal("shed counter not incremented")
	}
}

func TestSegmentLoadFaultHTTP(t *testing.T) {
	c := testCorpus(t, 0, "li")
	s := New(c, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := faultpoint.Arm("corpus.segment.load", faultpoint.Spec{Action: faultpoint.ActErr}); err != nil {
		t.Fatal(err)
	}
	defer faultpoint.DisarmAll()

	_, err := s.Query(context.Background(), "li", "cfrange",
		url.Values{"from": {"1"}, "to": {"64"}})
	var de *stream.DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("vetoed segment load returned %v, want *stream.DecodeError", err)
	}
	if code, body := getJSON(t, ts.URL+"/v1/traces/li/cfrange?from=1&to=64"); code != 502 || body["kind"] != "decode" {
		t.Fatalf("HTTP mapping of decode fault: %d %v", code, body)
	}
}

// TestServeConcurrentEviction drives the full stack — HTTP, admission,
// corpus, segment cache under a starvation budget — from 8 concurrent
// clients, then checks nothing was corrupted and the cache actually cycled.
func TestServeConcurrentEviction(t *testing.T) {
	c := testCorpus(t, 1<<13, "li", "gzip")
	s := New(c, Options{Workers: 4, Queue: 64})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	res, err := RunLoad(context.Background(), LoadOptions{
		BaseURL:  ts.URL,
		Clients:  8,
		Duration: 700 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 {
		t.Fatal("load generator issued no requests")
	}
	if res.Errors > 0 {
		t.Fatalf("%d/%d requests errored", res.Errors, res.Requests)
	}
	st := c.Stats()
	if st.Evictions == 0 || res.CacheMisses == 0 {
		t.Fatalf("cache never cycled under budget: %+v (load %+v)", st, res)
	}
	if res.P50ms <= 0 || res.QPS <= 0 {
		t.Fatalf("degenerate load result: %+v", res)
	}
	t.Logf("load: %+v", res)
}
