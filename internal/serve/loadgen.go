package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"wet/internal/corpus"
)

// DefaultLoadMix is the query mix the load generator drives when none is
// given: metadata lookups (served from the registry) interleaved with
// range extractions and profiles that touch segment state, so a bounded
// cache shows both hits and evictions. The evictions come from the one
// window over every timestamp: a capped cf stops at its limit, a cfrange
// walks its whole window.
var DefaultLoadMix = []string{
	"info",
	"cfrange?from=1&to=128&limit=32",
	"seekstats",
	"cfrange?from=1024&to=1152&limit=32",
	"segments",
	"cfrange?from=4096&to=4224&limit=32",
	"hotpaths?n=5",
	"cfrange?from=1&to=4294967295&limit=8",
	"time",
	"epochs",
}

// LoadOptions configures RunLoad.
type LoadOptions struct {
	// BaseURL is the daemon root, e.g. "http://localhost:9120".
	BaseURL string
	// Clients is the number of concurrent request loops (<=0: 4).
	Clients int
	// Duration bounds the run (<=0: 5s); ctx may end it earlier.
	Duration time.Duration
	// Mix is the rotation of "query[?params]" strings each client walks
	// (nil: DefaultLoadMix).
	Mix []string
}

// LoadResult is what the run measured. Latency quantiles are computed from
// every request's wall time; cache numbers are deltas of the daemon's own
// counters scraped from /v1/stats around the run.
type LoadResult struct {
	Requests int     `json:"requests"`
	Errors   int     `json:"errors"`
	Shed     int     `json:"shed"`
	Seconds  float64 `json:"seconds"`
	QPS      float64 `json:"qps"`

	P50ms float64 `json:"p50_ms"`
	P90ms float64 `json:"p90_ms"`
	P99ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`

	CacheHits      uint64  `json:"cache_hits"`
	CacheMisses    uint64  `json:"cache_misses"`
	CacheEvictions uint64  `json:"cache_evictions"`
	HitRate        float64 `json:"cache_hit_rate"`
}

// statsPayload mirrors the /v1/stats response shape.
type statsPayload struct {
	Corpus corpus.Stats `json:"corpus"`
	Pool   PoolStats    `json:"pool"`
}

// RunLoad drives the daemon at BaseURL with Clients concurrent loops for
// Duration, each rotating through the query mix across every served trace.
// Responses are drained and checked: 2xx counts as success, 503 as shed,
// anything else as an error.
func RunLoad(ctx context.Context, opts LoadOptions) (*LoadResult, error) {
	if opts.Clients <= 0 {
		opts.Clients = 4
	}
	if opts.Duration <= 0 {
		opts.Duration = 5 * time.Second
	}
	if len(opts.Mix) == 0 {
		opts.Mix = DefaultLoadMix
	}
	client := &http.Client{Timeout: 30 * time.Second}

	keys, err := traceKeys(client, opts.BaseURL)
	if err != nil {
		return nil, err
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("loadgen: daemon serves no traces")
	}
	before, err := scrapeStats(client, opts.BaseURL)
	if err != nil {
		return nil, err
	}

	ctx, cancel := context.WithTimeout(ctx, opts.Duration)
	defer cancel()

	type clientResult struct {
		lat         []time.Duration
		errs, sheds int
	}
	results := make([]clientResult, opts.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < opts.Clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := &results[id]
			for n := 0; ctx.Err() == nil; n++ {
				key := keys[(id+n)%len(keys)]
				q := opts.Mix[(id*7+n)%len(opts.Mix)]
				url := fmt.Sprintf("%s/v1/traces/%s/%s", opts.BaseURL, key, q)
				t0 := time.Now()
				code, err := get(ctx, client, url)
				r.lat = append(r.lat, time.Since(t0))
				switch {
				case ctx.Err() != nil:
					// The run ending mid-request is not a server error.
					r.lat = r.lat[:len(r.lat)-1]
					return
				case err != nil || code/100 != 2:
					if code == http.StatusServiceUnavailable {
						r.sheds++
					} else {
						r.errs++
					}
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	after, err := scrapeStats(client, opts.BaseURL)
	if err != nil {
		return nil, err
	}

	var lats []time.Duration
	res := &LoadResult{Seconds: elapsed.Seconds()}
	for _, r := range results {
		lats = append(lats, r.lat...)
		res.Errors += r.errs
		res.Shed += r.sheds
	}
	res.Requests = len(lats)
	if res.Seconds > 0 {
		res.QPS = float64(res.Requests) / res.Seconds
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		q := func(p float64) float64 {
			return float64(lats[int(p*float64(len(lats)-1))]) / float64(time.Millisecond)
		}
		res.P50ms, res.P90ms, res.P99ms = q(0.50), q(0.90), q(0.99)
		res.MaxMs = float64(lats[len(lats)-1]) / float64(time.Millisecond)
	}
	res.CacheHits = after.Corpus.Hits - before.Corpus.Hits
	res.CacheMisses = after.Corpus.Misses - before.Corpus.Misses
	res.CacheEvictions = after.Corpus.Evictions - before.Corpus.Evictions
	if tot := res.CacheHits + res.CacheMisses; tot > 0 {
		res.HitRate = float64(res.CacheHits) / float64(tot)
	}
	return res, nil
}

// traceKeys lists the daemon's trace keys.
func traceKeys(client *http.Client, base string) ([]string, error) {
	resp, err := client.Get(base + "/v1/traces")
	if err != nil {
		return nil, fmt.Errorf("loadgen: list traces: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: list traces: status %d", resp.StatusCode)
	}
	var body struct {
		Traces []struct {
			Key string `json:"key"`
		} `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("loadgen: list traces: %w", err)
	}
	keys := make([]string, len(body.Traces))
	for i, t := range body.Traces {
		keys[i] = t.Key
	}
	return keys, nil
}

// scrapeStats reads the daemon's /v1/stats counters.
func scrapeStats(client *http.Client, base string) (*statsPayload, error) {
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return nil, fmt.Errorf("loadgen: stats: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: stats: status %d", resp.StatusCode)
	}
	var st statsPayload
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("loadgen: stats: %w", err)
	}
	return &st, nil
}

// get issues one request, draining and discarding the body (keep-alive).
func get(ctx context.Context, client *http.Client, url string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}
