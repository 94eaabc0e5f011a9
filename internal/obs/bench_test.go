package obs

import (
	"testing"
	"time"
)

// BenchmarkSpanStartEnd is the proof behind the hot-path overhead
// budget: a full Start/End (two clock reads, histogram observe, ring
// push) must cost < 100 ns and allocate nothing, or the permanent
// instrumentation of decode/track/map/merge is not justified.
func BenchmarkSpanStartEnd(b *testing.B) {
	tr := NewTracer(nil, DefaultRingSize)
	st := tr.Stage("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Start(1, uint64(i)).End()
	}
}

// BenchmarkSpanStartEndParallel measures contention: 8 sessions share
// one tracer in production.
func BenchmarkSpanStartEndParallel(b *testing.B) {
	tr := NewTracer(nil, DefaultRingSize)
	st := tr.Stage("bench")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := uint64(0)
		for pb.Next() {
			i++
			st.Start(1, i).End()
		}
	})
}

// BenchmarkStageObserve measures the instrumentation cost where the
// pipeline already timed the stage (the tracker's device-adjusted
// durations): histogram observe + ring push, no clock reads. This is
// the marginal hot-path cost and must be < 100 ns.
func BenchmarkStageObserve(b *testing.B) {
	tr := NewTracer(nil, DefaultRingSize)
	st := tr.Stage("bench")
	t0 := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Observe(t0, time.Millisecond, 1, uint64(i))
	}
}

// BenchmarkHistogramObserve isolates the histogram cost (no clock, no
// ring) — what recording a latency on the hot path costs.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
}

// BenchmarkHistogramSnapshot is the read side (debug endpoint scrape).
func BenchmarkHistogramSnapshot(b *testing.B) {
	h := NewHistogram("bench")
	for i := 0; i < 100_000; i++ {
		h.Observe(time.Duration(i%5000) * time.Microsecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := h.Snapshot()
		_ = s.Quantile(0.99)
	}
}
