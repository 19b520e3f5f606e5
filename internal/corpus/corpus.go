// Package corpus is the multi-trace registry behind the serving daemon: a
// set of opened traces keyed by content hash, sharing one byte-budgeted
// cache of decoded segment state.
//
// Each trace is opened with a segment index (wet.WithSegments), so its
// label streams load structurally — serialized bytes retained, decode
// deferred. The corpus installs itself as the residency hooks of every
// segment: a decode admits the segment's decoded weight into a global LRU,
// a cursor touch refreshes its recency, and whenever admissions push the
// decoded total over the budget the least-recently-used segments are
// evicted (their decoded state dropped, their bytes reclaimed) until the
// corpus fits again. Live cursors are unaffected by eviction — a cursor
// holds a reference to the decoded state it started on — and a later query
// on an evicted segment simply re-decodes it, single-flight, from the
// retained bytes.
//
// The corpus deliberately does not import the metrics package; it keeps
// plain atomic counters (hits, misses, evictions, vetoes) that the serving
// layer bridges into its registry with CounterFunc/GaugeFunc.
package corpus

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"wet"
	"wet/internal/faultpoint"
	"wet/internal/stream"
)

// fpSegLoad fires inside the residency hook that guards every segment
// decode; an injected error vetoes the load and surfaces to the query that
// needed the segment as a *stream.DecodeError.
var fpSegLoad = faultpoint.New("corpus.segment.load")

// Entry is one registered trace.
type Entry struct {
	// Key is the hex sha256 of the container bytes — the content-addressed
	// identity clients query by.
	Key string
	// Name is the human-readable label the trace was added under.
	Name string
	// Size is the container size in bytes.
	Size int64
	// Trace is the query handle; all its methods are safe for concurrent use.
	Trace *wet.Trace
	// Segs indexes the trace's evictable segments.
	Segs *wet.SegmentSource
	// Report is the open report (its version).
	Report *wet.OpenReport
}

// Stats is a point-in-time snapshot of the corpus and its cache.
type Stats struct {
	Traces   int    `json:"traces"`
	Segments int    `json:"segments"`
	Budget   uint64 `json:"budget_bytes"`

	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Vetoes    uint64 `json:"load_vetoes"`

	ResidentBytes    uint64 `json:"resident_bytes"`
	ResidentSegments int    `json:"resident_segments"`
	RawBytes         uint64 `json:"raw_bytes"`

	// Aggregated cursor seek accounting across every trace in the corpus.
	Seeks    uint64 `json:"seeks"`
	Restores uint64 `json:"restores"`
	Steps    uint64 `json:"steps"`
}

// Corpus is a registry of traces sharing one segment-residency budget.
// Safe for concurrent use.
type Corpus struct {
	budget uint64 // decoded-byte ceiling; 0 = unlimited

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	vetoes    atomic.Uint64

	mu      sync.Mutex
	entries map[string]*Entry // by full key
	byName  map[string]*Entry
	order   []string // keys in add order

	// LRU of admitted (resident) segments; front = most recently used.
	lru      *list.List
	elem     map[*stream.Evictable]*list.Element
	weight   map[*stream.Evictable]uint64
	resident uint64
}

// New returns an empty corpus whose decoded segment state is bounded by
// byteBudget bytes (0: unlimited).
func New(byteBudget uint64) *Corpus {
	return &Corpus{
		budget:  byteBudget,
		entries: make(map[string]*Entry),
		byName:  make(map[string]*Entry),
		lru:     list.New(),
		elem:    make(map[*stream.Evictable]*list.Element),
		weight:  make(map[*stream.Evictable]uint64),
	}
}

// Add opens the container in data and registers it under name. The key is
// the sha256 of data; adding the same content twice returns the existing
// entry. Adding a different container under an existing name errors.
func (c *Corpus) Add(name string, data []byte) (*Entry, error) {
	sum := sha256.Sum256(data)
	key := hex.EncodeToString(sum[:])

	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		return e, nil
	}
	if _, taken := c.byName[name]; taken {
		c.mu.Unlock()
		return nil, fmt.Errorf("corpus: name %q already registered with different content", name)
	}
	c.mu.Unlock()

	ss := wet.NewSegmentSource()
	tr, rep, err := wet.Open(bytes.NewReader(data), wet.WithSegments(ss))
	if err != nil {
		return nil, fmt.Errorf("corpus: open %q: %w", name, err)
	}
	ss.SetHooks(hooks{c})

	e := &Entry{Key: key, Name: name, Size: int64(len(data)), Trace: tr, Segs: ss, Report: rep}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.entries[key]; ok { // lost a concurrent Add of the same bytes
		return prev, nil
	}
	if _, taken := c.byName[name]; taken {
		return nil, fmt.Errorf("corpus: name %q already registered with different content", name)
	}
	c.entries[key] = e
	c.byName[name] = e
	c.order = append(c.order, key)
	return e, nil
}

// AddFile reads path and registers it under name (the file's base name when
// name is empty).
func (c *Corpus) AddFile(name, path string) (*Entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	if name == "" {
		name = strings.TrimSuffix(filepathBase(path), ".wet")
	}
	return c.Add(name, data)
}

// filepathBase avoids importing path/filepath for one call.
func filepathBase(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}

// Lookup resolves a client-supplied trace reference: a registered name, a
// full key, or an unambiguous key prefix of at least 6 hex digits.
func (c *Corpus) Lookup(ref string) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byName[ref]; ok {
		return e, true
	}
	if e, ok := c.entries[ref]; ok {
		return e, true
	}
	if len(ref) >= 6 {
		var found *Entry
		for k, e := range c.entries {
			if strings.HasPrefix(k, ref) {
				if found != nil {
					return nil, false // ambiguous
				}
				found = e
			}
		}
		if found != nil {
			return found, true
		}
	}
	return nil, false
}

// Entries returns the registered traces in add order.
func (c *Corpus) Entries() []*Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Entry, 0, len(c.order))
	for _, k := range c.order {
		out = append(out, c.entries[k])
	}
	return out
}

// Hits returns cache hits: segment touches that found decoded state.
func (c *Corpus) Hits() uint64 { return c.hits.Load() }

// Misses returns cache misses: touches that had to decode.
func (c *Corpus) Misses() uint64 { return c.misses.Load() }

// Evictions returns how many segments the budget has evicted.
func (c *Corpus) Evictions() uint64 { return c.evictions.Load() }

// Vetoes returns loads refused by the corpus.segment.load faultpoint.
func (c *Corpus) Vetoes() uint64 { return c.vetoes.Load() }

// ResidentBytes returns the decoded bytes currently admitted.
func (c *Corpus) ResidentBytes() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resident
}

// ResidentSegments returns how many segments are currently admitted.
func (c *Corpus) ResidentSegments() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Budget returns the configured decoded-byte ceiling (0: unlimited).
func (c *Corpus) Budget() uint64 { return c.budget }

// EvictAll drops every admitted segment, returning the bytes released.
func (c *Corpus) EvictAll() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var released uint64
	for c.lru.Len() > 0 {
		released += c.evictLocked(c.lru.Back())
	}
	return released
}

// Stats snapshots the corpus.
func (c *Corpus) Stats() Stats {
	st := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Vetoes:    c.vetoes.Load(),
		Budget:    c.budget,
	}
	c.mu.Lock()
	entries := make([]*Entry, 0, len(c.order))
	for _, k := range c.order {
		entries = append(entries, c.entries[k])
	}
	st.Traces = len(entries)
	st.ResidentBytes = c.resident
	st.ResidentSegments = c.lru.Len()
	c.mu.Unlock()

	for _, e := range entries {
		st.Segments += e.Segs.Len()
		st.RawBytes += e.Segs.RawBytes()
		ss := e.Trace.SeekStats()
		st.Seeks += ss.Seeks
		st.Restores += ss.Restores
		st.Steps += ss.Steps
	}
	return st
}

// --- residency hooks ---

// hooks adapts the corpus to stream.ResidencyHooks. BeforeLoad and
// AfterLoad run under the segment's load mutex; Touched runs lock-free on
// the cursor fast path. None of them may call back into the stream they are
// invoked for (Evict, being lock-free, is the one exception) — the lock
// order is always segment.loadMu → corpus.mu, never the reverse.
type hooks struct{ c *Corpus }

// BeforeLoad gates the decode: a veto (injected via corpus.segment.load)
// aborts the load and surfaces to the touching query as a *DecodeError.
func (h hooks) BeforeLoad(e *stream.Evictable) error {
	if err := fpSegLoad.Hit(); err != nil {
		h.c.vetoes.Add(1)
		return err
	}
	h.c.misses.Add(1)
	return nil
}

// AfterLoad admits the freshly decoded segment and evicts from the LRU
// tail until the corpus fits its budget again. The segment just loaded is
// never evicted here — evicting it would discard state its loader is about
// to use.
func (h hooks) AfterLoad(e *stream.Evictable, weight uint64) {
	c := h.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.elem[e]; ok {
		// Re-admission after an external evict the corpus didn't see
		// (EvictAll on the SegmentSource): refresh the weight in place.
		c.resident += weight - c.weight[e]
		c.weight[e] = weight
		c.lru.MoveToFront(el)
	} else {
		c.elem[e] = c.lru.PushFront(e)
		c.weight[e] = weight
		c.resident += weight
	}
	if c.budget == 0 {
		return
	}
	for c.resident > c.budget && c.lru.Len() > 1 {
		tail := c.lru.Back()
		if tail.Value.(*stream.Evictable) == e {
			break
		}
		c.evictLocked(tail)
	}
}

// Touched refreshes recency on a cache hit.
func (h hooks) Touched(e *stream.Evictable) {
	c := h.c
	c.hits.Add(1)
	c.mu.Lock()
	if el, ok := c.elem[e]; ok {
		c.lru.MoveToFront(el)
	}
	c.mu.Unlock()
}

// evictLocked removes one admitted segment (held as a *list.Element) and
// drops its decoded state. Caller holds c.mu. Returns the bytes released
// per the admission-time weight.
func (c *Corpus) evictLocked(el *list.Element) uint64 {
	e := el.Value.(*stream.Evictable)
	c.lru.Remove(el)
	delete(c.elem, e)
	w := c.weight[e]
	delete(c.weight, e)
	c.resident -= w
	e.Evict()
	c.evictions.Add(1)
	return w
}
