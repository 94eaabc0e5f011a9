package obs

import (
	"sort"
	"sync"
)

// Registry is a named collection of counters, gauges and histograms.
// Registration is locked (cold path); the registered instruments are
// themselves atomic, so reading or writing them never touches the
// registry lock. One registry backs the debug endpoint's JSON dump.
type Registry struct {
	mu       sync.Mutex
	hists    map[string]*Histogram
	counters map[string]*Counter
	gauges   map[string]*Gauge
	funcs    map[string]func() any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		hists:    make(map[string]*Histogram),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		funcs:    make(map[string]func() any),
	}
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := NewHistogram(name)
	r.hists[name] = h
	return h
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// RegisterCounter publishes an externally owned counter (e.g. the
// server's NetStats) under the given name.
func (r *Registry) RegisterCounter(name string, c *Counter) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] = c
	r.mu.Unlock()
}

// RegisterFunc publishes a value computed at scrape time (e.g. map
// sizes). f must be safe to call from the debug endpoint's goroutine.
func (r *Registry) RegisterFunc(name string, f func() any) {
	if r == nil || f == nil {
		return
	}
	r.mu.Lock()
	r.funcs[name] = f
	r.mu.Unlock()
}

// HistogramNames returns the registered histogram names, sorted.
func (r *Registry) HistogramNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.hists))
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot captures every registered instrument for serialization.
func (r *Registry) Snapshot() RegistrySnapshot {
	if r == nil {
		return RegistrySnapshot{}
	}
	r.mu.Lock()
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	funcs := make(map[string]func() any, len(r.funcs))
	for n, f := range r.funcs {
		funcs[n] = f
	}
	r.mu.Unlock()

	snap := RegistrySnapshot{
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]float64, len(gauges)),
		Vars:       make(map[string]any, len(funcs)),
		Histograms: make(map[string]HistogramJSON, len(hists)),
	}
	for n, c := range counters {
		snap.Counters[n] = c.Load()
	}
	for n, g := range gauges {
		snap.Gauges[n] = g.Load()
	}
	for n, f := range funcs {
		snap.Vars[n] = f()
	}
	for n, h := range hists {
		snap.Histograms[n] = histogramJSON(h.Snapshot())
	}
	return snap
}

// HistogramJSON is the wire form of one histogram in the debug dump.
type HistogramJSON struct {
	Count   uint64        `json:"count"`
	SumNs   int64         `json:"sum_ns"`
	MeanNs  int64         `json:"mean_ns"`
	MinNs   int64         `json:"min_ns"`
	MaxNs   int64         `json:"max_ns"`
	P50Ns   int64         `json:"p50_ns"`
	P90Ns   int64         `json:"p90_ns"`
	P99Ns   int64         `json:"p99_ns"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

func histogramJSON(s HistogramSnapshot) HistogramJSON {
	return HistogramJSON{
		Count:   s.Count,
		SumNs:   int64(s.Sum),
		MeanNs:  int64(s.Mean()),
		MinNs:   int64(s.Min),
		MaxNs:   int64(s.Max),
		P50Ns:   int64(s.Quantile(0.50)),
		P90Ns:   int64(s.Quantile(0.90)),
		P99Ns:   int64(s.Quantile(0.99)),
		Buckets: s.Buckets,
	}
}

// RegistrySnapshot is the expvar-style JSON document the debug
// endpoint serves.
type RegistrySnapshot struct {
	Counters   map[string]int64         `json:"counters"`
	Gauges     map[string]float64       `json:"gauges"`
	Vars       map[string]any           `json:"vars"`
	Histograms map[string]HistogramJSON `json:"histograms"`
}
