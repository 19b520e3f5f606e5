// Package serve implements wetd's query service: HTTP/JSON endpoints over a
// corpus of traces, with every query admitted through a bounded worker pool
// (overload sheds instead of queueing without bound), bounded by a
// per-request deadline, and instrumented into a metrics registry.
//
// The query surface is deliberately split from HTTP: Server.Query runs a
// named query with string parameters and returns a JSON-encodable result or
// a typed error (*ShedError, *ParamError, ErrUnknownTrace,
// *stream.DecodeError, context cancellation). The HTTP layer only routes,
// decodes parameters, and maps those errors to status codes — so harnesses
// (the failpoint sweep, the race tests) drive Query directly and see the
// same behavior clients do.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"wet"
	"wet/internal/corpus"
	"wet/internal/metrics"
	"wet/internal/query"
	"wet/internal/stream"
)

// ErrUnknownTrace reports a trace reference that resolves to nothing (or
// ambiguously). HTTP maps it to 404.
var ErrUnknownTrace = errors.New("unknown trace")

// ParamError reports an unusable query or parameter. HTTP maps it to 400.
type ParamError struct {
	Msg string
}

func (e *ParamError) Error() string { return "bad request: " + e.Msg }

// Options tunes the server.
type Options struct {
	// Workers bounds concurrently executing queries (<=0: 4).
	Workers int
	// Queue bounds queries waiting for a worker; beyond it requests are
	// shed with 503 (<=0: 4×Workers).
	Queue int
	// Deadline bounds each request, queue time included (<=0: 30s).
	Deadline time.Duration
	// MaxItems caps the elements any one response may carry (ids, samples,
	// instances); requests may lower it per call with ?limit= (<=0: 10000).
	MaxItems int
}

// Server serves queries over a corpus.
type Server struct {
	c       *corpus.Corpus
	opts    Options
	pool    *pool
	timeout error // a request's cause when its deadline passes

	reg      *metrics.Registry
	tracer   *metrics.Tracer
	requests *metrics.CounterVec
}

// New builds a server over c. The registry is created internally and
// exposed via Registry (and /metrics).
func New(c *corpus.Corpus, opts Options) *Server {
	if opts.Deadline <= 0 {
		opts.Deadline = 30 * time.Second
	}
	if opts.MaxItems <= 0 {
		opts.MaxItems = 10000
	}
	s := &Server{c: c, opts: opts, pool: newPool(opts.Workers, opts.Queue),
		timeout: fmt.Errorf("wetd: deadline %v exceeded: %w", opts.Deadline, context.DeadlineExceeded)}

	r := metrics.NewRegistry()
	s.reg = r
	s.tracer = metrics.NewTracer(r, "wetd_request", "query latency by operation")
	s.requests = r.NewCounterVec("wetd_requests_total", "HTTP requests by endpoint and status", "endpoint", "code")
	r.NewCounterFunc("wetd_shed_total", "requests refused at admission", func() uint64 { return s.pool.shed.Load() })
	r.NewGaugeFunc("wetd_queue_depth", "queries waiting for a worker", func() float64 { return float64(s.pool.waiting.Load()) })
	r.NewGaugeFunc("wetd_active_queries", "queries executing", func() float64 { return float64(s.pool.active.Load()) })
	r.NewCounterFunc("wetd_cache_hits_total", "segment cache hits", c.Hits)
	r.NewCounterFunc("wetd_cache_misses_total", "segment cache misses (decodes)", c.Misses)
	r.NewCounterFunc("wetd_cache_evictions_total", "segments evicted by the byte budget", c.Evictions)
	r.NewCounterFunc("wetd_cache_load_vetoes_total", "segment loads refused by fault injection", c.Vetoes)
	r.NewGaugeFunc("wetd_cache_resident_bytes", "decoded segment bytes resident", func() float64 { return float64(c.ResidentBytes()) })
	r.NewGaugeFunc("wetd_cache_resident_segments", "segments resident", func() float64 { return float64(c.ResidentSegments()) })
	r.NewGaugeFunc("wetd_cache_budget_bytes", "configured decoded-byte budget", func() float64 { return float64(c.Budget()) })
	r.NewGaugeFunc("wetd_corpus_traces", "traces registered", func() float64 { return float64(len(c.Entries())) })
	return s
}

// Registry returns the server's metrics registry.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Corpus returns the corpus the server queries.
func (s *Server) Corpus() *corpus.Corpus { return s.c }

// PoolStats snapshots the admission pool.
func (s *Server) PoolStats() PoolStats { return s.pool.stats() }

// Queries lists the query names Query serves, in listing order.
func Queries() []string {
	return []string{
		"info", "report", "validate", "seekstats", "segments", "time",
		"epochs", "cf", "cfrange", "valuetrace", "addrtrace", "instance",
		"backward", "forward", "chop", "depchain", "hotpaths", "dot",
		"invariance", "strides",
	}
}

// Query admits, deadlines, and runs the named query against the trace ref
// resolves to. The result is JSON-encodable. Errors are typed: resolution
// failures return ErrUnknownTrace, parameter problems *ParamError, shedding
// *ShedError, deadline/cancel a context cause, and a segment whose decode
// was refused (fault injection, forged bytes) a *stream.DecodeError.
func (s *Server) Query(ctx context.Context, ref, q string, params url.Values) (result any, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithTimeoutCause(ctx, s.opts.Deadline, s.timeout)
	defer cancel()

	sp := s.tracer.Start(q)
	defer sp.End()

	err = s.pool.Do(ctx, func() error {
		e, ok := s.c.Lookup(ref)
		if !ok {
			return fmt.Errorf("%w: %q", ErrUnknownTrace, ref)
		}
		var qerr error
		result, qerr = s.run(ctx, e, q, params)
		return qerr
	})
	return result, err
}

// run executes one query on a resolved entry. It runs on a pool worker.
func (s *Server) run(ctx context.Context, e *corpus.Entry, q string, params url.Values) (any, error) {
	tr := e.Trace
	limit := s.opts.MaxItems
	if n, ok, err := optInt(params, "limit"); err != nil {
		return nil, err
	} else if ok && n >= 0 && n < limit {
		limit = n
	}

	switch q {
	case "info":
		return map[string]any{
			"key": e.Key, "name": e.Name, "size_bytes": e.Size,
			"version": e.Report.Version, "time": tr.Time(),
			"epoch_ts": tr.EpochTS(), "epochs": tr.Epochs(),
			"segmented": tr.Segmented(), "tier": int(tr.Tier()),
			"segments": e.Segs.Len(),
		}, nil
	case "report":
		return tr.Report(), nil
	case "validate":
		if err := tr.Validate(); err != nil {
			return map[string]any{"ok": false, "error": err.Error()}, nil
		}
		return map[string]any{"ok": true}, nil
	case "seekstats":
		return tr.SeekStats(), nil
	case "segments":
		return map[string]any{
			"total": e.Segs.Len(), "resident": e.Segs.ResidentCount(),
			"resident_bytes": e.Segs.ResidentBytes(), "raw_bytes": e.Segs.RawBytes(),
		}, nil
	case "time":
		return map[string]any{"time": tr.Time()}, nil
	case "epochs":
		return map[string]any{"epoch_ts": tr.EpochTS(), "epochs": tr.Epochs(), "segmented": tr.Segmented()}, nil
	case "cf":
		forward := params.Get("dir") != "backward"
		ids := make([]int, 0, min(limit, 1024))
		n, err := query.ExtractCFCtx(ctx, tr.WET(), tr.Tier(), forward, limit, func(id int) { ids = append(ids, id) })
		if err != nil {
			return nil, err
		}
		return map[string]any{"count": n, "ids": ids, "truncated": n > uint64(len(ids))}, nil
	case "cfrange":
		from, err := reqUint32(params, "from")
		if err != nil {
			return nil, err
		}
		to, err := reqUint32(params, "to")
		if err != nil {
			return nil, err
		}
		ids := make([]int, 0, min(limit, 1024))
		n, qerr := query.ExtractCFRangeCtx(ctx, tr.WET(), tr.Tier(), from, to, limit, func(id int) { ids = append(ids, id) })
		if qerr != nil {
			return nil, qerr
		}
		return map[string]any{"count": n, "ids": ids, "truncated": n > uint64(len(ids))}, nil
	case "valuetrace", "addrtrace":
		stmt, err := reqInt(params, "stmt")
		if err != nil {
			return nil, err
		}
		trace := query.ValueTraceCtx
		if q == "addrtrace" {
			trace = query.AddressTraceCtx
		}
		samples := make([]wet.Sample, 0, min(limit, 1024))
		n, qerr := trace(ctx, tr.WET(), tr.Tier(), stmt, limit, func(sm wet.Sample) { samples = append(samples, sm) })
		if qerr != nil {
			return nil, qerr
		}
		return map[string]any{"count": n, "samples": samples, "truncated": n > uint64(len(samples))}, nil
	case "instance":
		inst, err := instanceParam(tr, params)
		if err != nil {
			return nil, err
		}
		return inst, nil
	case "backward", "forward":
		inst, err := instanceParam(tr, params)
		if err != nil {
			return nil, err
		}
		maxI, _, err := optIntDefault(params, "max", 0)
		if err != nil {
			return nil, err
		}
		var res *wet.SliceResult
		if q == "backward" {
			res, err = tr.Backward(inst, maxI)
		} else {
			res, err = tr.Forward(inst, maxI)
		}
		if err != nil {
			return nil, err
		}
		return sliceJSON(res, limit), nil
	case "chop":
		from, err := instanceAt(tr, params, "from_stmt", "from_ts")
		if err != nil {
			return nil, err
		}
		to, err := instanceAt(tr, params, "to_stmt", "to_ts")
		if err != nil {
			return nil, err
		}
		maxI, _, err := optIntDefault(params, "max", 0)
		if err != nil {
			return nil, err
		}
		res, err := tr.Chop(from, to, maxI)
		if err != nil {
			return nil, err
		}
		return sliceJSON(res, limit), nil
	case "depchain":
		inst, err := instanceParam(tr, params)
		if err != nil {
			return nil, err
		}
		op, _, err := optIntDefault(params, "op", 0)
		if err != nil {
			return nil, err
		}
		maxLen, _, err := optIntDefault(params, "maxlen", 64)
		if err != nil {
			return nil, err
		}
		chain, err := tr.DependenceChain(inst, op, maxLen)
		if err != nil {
			return nil, err
		}
		return map[string]any{"chain": chain}, nil
	case "hotpaths":
		n, _, err := optIntDefault(params, "n", 10)
		if err != nil {
			return nil, err
		}
		return tr.HotPaths(n), nil
	case "dot":
		inst, err := instanceParam(tr, params)
		if err != nil {
			return nil, err
		}
		maxI, _, err := optIntDefault(params, "max", 256)
		if err != nil {
			return nil, err
		}
		res, err := tr.Backward(inst, maxI)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := tr.WriteDOT(res, &buf); err != nil {
			return nil, err
		}
		return map[string]any{"dot": buf.String()}, nil
	case "invariance":
		minE, _, err := optIntDefault(params, "minexecs", 2)
		if err != nil {
			return nil, err
		}
		return tr.ValueInvariance(uint64(minE))
	case "strides":
		minA, _, err := optIntDefault(params, "minaccesses", 2)
		if err != nil {
			return nil, err
		}
		return tr.StrideProfiles(minA)
	default:
		return nil, &ParamError{Msg: fmt.Sprintf("unknown query %q (have %v)", q, Queries())}
	}
}

// sliceJSON summarizes a slice result, bounding the instance list.
func sliceJSON(res *wet.SliceResult, limit int) map[string]any {
	insts := res.Instances
	trunc := false
	if len(insts) > limit {
		insts, trunc = insts[:limit], true
	}
	return map[string]any{
		"criterion": res.Criterion, "count": len(res.Instances),
		"edges": res.Edges, "pruned_cd": res.PrunedCD,
		"instances": insts, "truncated": trunc,
	}
}

// instanceParam resolves stmt= and ts= to the dynamic instance at that
// timestamp.
func instanceParam(tr *wet.Trace, params url.Values) (wet.Instance, error) {
	return instanceAt(tr, params, "stmt", "ts")
}

func instanceAt(tr *wet.Trace, params url.Values, stmtKey, tsKey string) (wet.Instance, error) {
	stmt, err := reqInt(params, stmtKey)
	if err != nil {
		return wet.Instance{}, err
	}
	ts, err := reqUint32(params, tsKey)
	if err != nil {
		return wet.Instance{}, err
	}
	return tr.InstanceOfTS(stmt, ts)
}

// --- parameter helpers ---

func reqInt(params url.Values, key string) (int, error) {
	v := params.Get(key)
	if v == "" {
		return 0, &ParamError{Msg: "missing required parameter " + key}
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, &ParamError{Msg: fmt.Sprintf("parameter %s=%q is not an integer", key, v)}
	}
	return n, nil
}

func reqUint32(params url.Values, key string) (uint32, error) {
	n, err := reqInt(params, key)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, &ParamError{Msg: fmt.Sprintf("parameter %s must be >= 0", key)}
	}
	return uint32(n), nil
}

func optInt(params url.Values, key string) (int, bool, error) {
	v := params.Get(key)
	if v == "" {
		return 0, false, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, false, &ParamError{Msg: fmt.Sprintf("parameter %s=%q is not an integer", key, v)}
	}
	return n, true, nil
}

func optIntDefault(params url.Values, key string, def int) (int, bool, error) {
	n, ok, err := optInt(params, key)
	if err != nil {
		return 0, false, err
	}
	if !ok {
		return def, false, nil
	}
	return n, true, nil
}

// --- HTTP layer ---

// Handler returns the daemon's routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		s.requests.With("healthz", "200").Inc()
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		s.requests.With("stats", "200").Inc()
		writeJSON(w, http.StatusOK, map[string]any{
			"corpus": s.c.Stats(),
			"pool":   s.pool.stats(),
		})
	})
	mux.HandleFunc("GET /v1/traces", func(w http.ResponseWriter, r *http.Request) {
		s.requests.With("traces", "200").Inc()
		type item struct {
			Key      string `json:"key"`
			Name     string `json:"name"`
			Size     int64  `json:"size_bytes"`
			Version  int    `json:"version"`
			Time     uint32 `json:"time"`
			Segments int    `json:"segments"`
		}
		items := []item{}
		for _, e := range s.c.Entries() {
			items = append(items, item{e.Key, e.Name, e.Size, e.Report.Version, e.Trace.Time(), e.Segs.Len()})
		}
		writeJSON(w, http.StatusOK, map[string]any{"traces": items, "queries": Queries()})
	})
	mux.HandleFunc("GET /v1/traces/{key}", func(w http.ResponseWriter, r *http.Request) {
		s.serveQuery(w, r, r.PathValue("key"), "info")
	})
	mux.HandleFunc("GET /v1/traces/{key}/{query}", func(w http.ResponseWriter, r *http.Request) {
		s.serveQuery(w, r, r.PathValue("key"), r.PathValue("query"))
	})
	return mux
}

func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, ref, q string) {
	result, err := s.Query(r.Context(), ref, q, r.URL.Query())
	code := statusFor(err)
	s.requests.With(q, strconv.Itoa(code)).Inc()
	if err != nil {
		writeJSON(w, code, map[string]any{"error": err.Error(), "kind": kindFor(err)})
		return
	}
	writeJSON(w, code, map[string]any{"trace": ref, "query": q, "result": result})
}

// statusFor maps a Query error to an HTTP status.
func statusFor(err error) int {
	var pe *ParamError
	var she *ShedError
	var de *stream.DecodeError
	var se *query.StmtError
	switch {
	case err == nil:
		return http.StatusOK
	case errors.As(err, &pe), errors.As(err, &se):
		return http.StatusBadRequest
	case errors.Is(err, ErrUnknownTrace):
		return http.StatusNotFound
	case errors.As(err, &she):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request
	case errors.As(err, &de):
		return http.StatusBadGateway
	default:
		return http.StatusInternalServerError
	}
}

// kindFor names the error class for clients that dispatch without parsing
// status codes.
func kindFor(err error) string {
	switch statusFor(err) {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusServiceUnavailable:
		return "shed"
	case http.StatusGatewayTimeout:
		return "deadline"
	case 499:
		return "cancelled"
	case http.StatusBadGateway:
		return "decode"
	default:
		return "internal"
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
