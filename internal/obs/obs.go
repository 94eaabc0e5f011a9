// Package obs is the pipeline observability layer: low-overhead span
// tracing and latency histograms threaded through the whole frame path
// (decode, feature extraction, tracking, search-local-points, local
// mapping, merge, WAL append, checkpoint rotation).
//
// Design constraints, in order:
//
//  1. Hot-path cost. A Start/End pair is two clock reads, a handful of
//     atomic adds into a log-bucketed histogram, and one seqlock write
//     into a fixed-size span ring — no locks, no allocation, no
//     sorting. The overhead budget is < 100 ns per span (see
//     BenchmarkSpanStartEnd), which justifies leaving the
//     instrumentation permanently on.
//  2. Trace reconstruction. Every span carries (client ID, frame seq)
//     as its trace ID, so one frame's journey through the pipeline is
//     reconstructable from the ring after the fact.
//  3. Read-side isolation. Quantiles, span dumps and the debug HTTP
//     endpoint only ever read atomics; a scrape cannot stall a
//     tracker.
//
// The typical wiring: a server owns one Tracer; packages on the frame
// path hold pre-resolved *Stage handles (resolving a stage name is the
// only locked operation, done once) and call Start/End or Observe.
// All *Stage and *Tracer methods are nil-safe no-ops so instrumented
// code needs no "is observability on" branches.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// DefaultRingSize is the span-ring capacity a Tracer gets when the
// caller does not choose one: enough for ~half a minute of full
// multi-client pipeline spans at 30 fps.
const DefaultRingSize = 8192

// Tracer owns the span ring and the stage registry of one server (or
// one test). Stages are interned: the hot path deals in *Stage
// handles and integer IDs, never strings.
type Tracer struct {
	reg  *Registry
	ring *spanRing

	mu     sync.Mutex
	stages map[string]*Stage
	names  atomic.Pointer[[]string] // stage ID -> name, copy-on-write
}

// NewTracer returns a tracer whose stage histograms register into reg
// (nil creates a private registry). ringSize <= 0 uses DefaultRingSize.
func NewTracer(reg *Registry, ringSize int) *Tracer {
	if reg == nil {
		reg = NewRegistry()
	}
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	t := &Tracer{
		reg:    reg,
		ring:   newSpanRing(ringSize),
		stages: make(map[string]*Stage),
	}
	names := []string{}
	t.names.Store(&names)
	return t
}

// Registry returns the tracer's metric registry.
func (t *Tracer) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Stage interns a stage name and returns its handle. Idempotent; the
// handle is what instrumented code keeps (resolution takes a lock,
// Start/End never does). A nil tracer returns a nil handle, whose
// methods are no-ops.
func (t *Tracer) Stage(name string) *Stage {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if st, ok := t.stages[name]; ok {
		return st
	}
	st := &Stage{
		tr:   t,
		id:   uint32(len(*t.names.Load())),
		hist: t.reg.Histogram(name),
	}
	names := append(append([]string{}, *t.names.Load()...), name)
	t.names.Store(&names)
	t.stages[name] = st
	return st
}

// StageNames returns the registered stage names in registration order.
func (t *Tracer) StageNames() []string {
	if t == nil {
		return nil
	}
	return append([]string{}, *t.names.Load()...)
}

func (t *Tracer) stageName(id uint32) string {
	names := *t.names.Load()
	if int(id) < len(names) {
		return names[id]
	}
	return "?"
}

// RecentSpans returns up to n of the most recent completed spans,
// newest first (n <= 0 means all retained).
func (t *Tracer) RecentSpans(n int) []SpanRecord {
	if t == nil {
		return nil
	}
	return t.ring.snapshot(n, t.stageName)
}

// Stage is a pre-resolved pipeline stage: an interned ID plus the
// histogram its spans feed. The zero of usefulness — a nil *Stage —
// is a valid receiver for every method, so instrumentation sites can
// be wired unconditionally.
type Stage struct {
	tr   *Tracer
	id   uint32
	hist *Histogram
}

// Histogram returns the stage's latency histogram (nil for a nil stage).
func (st *Stage) Histogram() *Histogram {
	if st == nil {
		return nil
	}
	return st.hist
}

// Start opens a span for one (client, frame seq) trace. The returned
// Span is a value — no allocation — and must be closed with End.
func (st *Stage) Start(client uint32, seq uint64) Span {
	if st == nil {
		return Span{}
	}
	return Span{st: st, client: client, seq: seq, t0: time.Now()}
}

// Observe records a span whose timing was measured externally — used
// where the pipeline already times a stage (e.g. the tracker's
// device-adjusted stage durations) so the clock is not read twice.
func (st *Stage) Observe(start time.Time, d time.Duration, client uint32, seq uint64) {
	if st == nil {
		return
	}
	st.hist.Observe(d)
	st.tr.ring.push(st.id, client, seq, start.UnixNano(), int64(d))
}

// Span is an open span; End closes it, recording its duration into
// the stage histogram and the span ring.
type Span struct {
	st     *Stage
	client uint32
	seq    uint64
	t0     time.Time
}

// End closes the span and returns its duration (0 for a no-op span).
func (sp Span) End() time.Duration {
	if sp.st == nil {
		return 0
	}
	d := time.Since(sp.t0)
	sp.st.hist.Observe(d)
	sp.st.tr.ring.push(sp.st.id, sp.client, sp.seq, sp.t0.UnixNano(), int64(d))
	return d
}
