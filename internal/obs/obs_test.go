package obs

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestBucketMappingRoundTrip(t *testing.T) {
	// Every probe value must land in a bucket whose bounds contain it,
	// and bucket indices must be monotone in the value.
	probes := []int64{0, 1, 7, 8, 15, 16, 17, 100, 1023, 1024, 4096, 1e6, 123456789, math.MaxInt64 / 2}
	prev := -1
	for _, v := range probes {
		b := bucketOf(v)
		lo, hi := bucketBounds(b)
		if v < lo || v >= hi {
			t.Errorf("value %d mapped to bucket %d with bounds [%d,%d)", v, b, lo, hi)
		}
		if b < prev {
			t.Errorf("bucket index not monotone: value %d -> bucket %d after %d", v, b, prev)
		}
		prev = b
	}
	// Exhaustive continuity over the first few octaves: consecutive
	// values never skip backwards and bounds tile without gaps.
	for v := int64(0); v < 4096; v++ {
		b := bucketOf(v)
		lo, hi := bucketBounds(b)
		if v < lo || v >= hi {
			t.Fatalf("value %d outside its bucket %d [%d,%d)", v, b, lo, hi)
		}
	}
}

func TestBucketRelativeError(t *testing.T) {
	// The log-linear scheme bounds quantization error by 2^-subBits.
	for _, v := range []int64{100, 999, 12345, 7_777_777, 3_000_000_000} {
		mid := bucketMid(bucketOf(v))
		relErr := math.Abs(float64(mid-v)) / float64(v)
		if relErr > 1.0/(1<<subBits) {
			t.Errorf("bucketMid(%d)=%d, relative error %.3f > %.3f", v, mid, relErr, 1.0/(1<<subBits))
		}
	}
}

// TestHistogramQuantiles is the table-driven nearest-rank coverage the
// quantile rule is pinned by: N=1,2,4,100.
func TestHistogramQuantiles(t *testing.T) {
	cases := []struct {
		name    string
		samples []time.Duration
		q       float64
		want    time.Duration
	}{
		{"N=1 p50", []time.Duration{5 * time.Millisecond}, 0.50, 5 * time.Millisecond},
		{"N=1 p99", []time.Duration{5 * time.Millisecond}, 0.99, 5 * time.Millisecond},
		{"N=2 p50", []time.Duration{1 * time.Millisecond, 9 * time.Millisecond}, 0.50, 1 * time.Millisecond},
		// Nearest rank: ceil(0.99*2)=2 -> the max, not the min (floor
		// indexing int(q*(N-1)) would return P50 here).
		{"N=2 p99", []time.Duration{1 * time.Millisecond, 9 * time.Millisecond}, 0.99, 9 * time.Millisecond},
		{"N=4 p50", []time.Duration{1 * time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond, 8 * time.Millisecond}, 0.50, 2 * time.Millisecond},
		{"N=4 p99", []time.Duration{1 * time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond, 8 * time.Millisecond}, 0.99, 8 * time.Millisecond},
	}
	for _, tc := range cases {
		h := NewHistogram("q")
		for _, s := range tc.samples {
			h.Observe(s)
		}
		got := h.Snapshot().Quantile(tc.q)
		// Histogram quantiles are bucket midpoints: allow the scheme's
		// quantization error.
		tol := float64(tc.want) / (1 << subBits)
		if math.Abs(float64(got-tc.want)) > tol {
			t.Errorf("%s: got %v want %v (±%v)", tc.name, got, tc.want, time.Duration(tol))
		}
	}

	// N=100: 1..100ms. p50 ≈ 50ms, p90 ≈ 90ms, p99 ≈ 99ms within
	// bucket resolution; min/max exact.
	h := NewHistogram("q100")
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Min != 1*time.Millisecond || s.Max != 100*time.Millisecond {
		t.Errorf("min/max: got %v/%v", s.Min, s.Max)
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.50, 50 * time.Millisecond}, {0.90, 90 * time.Millisecond}, {0.99, 99 * time.Millisecond}} {
		got := s.Quantile(c.q)
		if math.Abs(float64(got-c.want)) > float64(c.want)/(1<<subBits) {
			t.Errorf("N=100 q=%.2f: got %v want ≈%v", c.q, got, c.want)
		}
	}
	if s.Quantile(1.0) != 100*time.Millisecond {
		t.Errorf("q=1.0 must be the max, got %v", s.Quantile(1.0))
	}
}

func TestQuantilesMonotone(t *testing.T) {
	h := NewHistogram("m")
	for i := 0; i < 1000; i++ {
		h.Observe(time.Duration(i%37+1) * 100 * time.Microsecond)
	}
	s := h.Snapshot()
	qs := []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0}
	prev := time.Duration(-1)
	for _, q := range qs {
		v := s.Quantile(q)
		if v < prev {
			t.Errorf("quantiles not monotone: q=%.2f -> %v after %v", q, v, prev)
		}
		prev = v
	}
	if s.Quantile(1.0) != s.Max {
		t.Errorf("q=1.0 (%v) != max (%v)", s.Quantile(1.0), s.Max)
	}
}

func TestTracerSpansAndStages(t *testing.T) {
	tr := NewTracer(nil, 16)
	st := tr.Stage("decode")
	if tr.Stage("decode") != st {
		t.Fatal("Stage must intern")
	}
	sp := st.Start(7, 42)
	time.Sleep(time.Millisecond)
	d := sp.End()
	if d <= 0 {
		t.Fatalf("span duration %v", d)
	}
	spans := tr.RecentSpans(0)
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	got := spans[0]
	if got.Stage != "decode" || got.Client != 7 || got.Seq != 42 || got.Dur != d {
		t.Errorf("span = %+v, want stage=decode client=7 seq=42 dur=%v", got, d)
	}
	if st.Histogram().Count() != 1 {
		t.Errorf("histogram count = %d", st.Histogram().Count())
	}
}

func TestRingOverwriteKeepsNewest(t *testing.T) {
	tr := NewTracer(nil, 8)
	st := tr.Stage("s")
	for i := 0; i < 20; i++ {
		st.Observe(time.Now(), time.Duration(i+1), 1, uint64(i))
	}
	spans := tr.RecentSpans(0)
	if len(spans) != 8 {
		t.Fatalf("ring retained %d spans, want 8", len(spans))
	}
	// Newest first: seqs 19..12.
	for i, sp := range spans {
		if want := uint64(19 - i); sp.Seq != want {
			t.Errorf("spans[%d].Seq = %d, want %d", i, sp.Seq, want)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	st := tr.Stage("x")
	if st != nil {
		t.Fatal("nil tracer must return nil stage")
	}
	if d := st.Start(1, 2).End(); d != 0 {
		t.Errorf("nil stage span duration = %v", d)
	}
	st.Observe(time.Now(), time.Second, 1, 2) // must not panic
	if tr.RecentSpans(10) != nil {
		t.Error("nil tracer RecentSpans must be nil")
	}
	var reg *Registry
	if reg.Histogram("h") != nil {
		t.Error("nil registry must return nil histogram")
	}
	c := tr.Registry().Counter("c")
	c.Add(2) // must not panic
	c.Inc()
	if c != nil || c.Load() != 0 {
		t.Error("nil registry must return a nil counter that counts nothing")
	}
}

func TestRegistrySnapshotAndHandler(t *testing.T) {
	tr := NewTracer(nil, 64)
	reg := tr.Registry()
	reg.Counter("frames").Add(3)
	reg.Gauge("load").Set(0.5)
	reg.RegisterFunc("keyframes", func() any { return 11 })
	st := tr.Stage("track.total")
	st.Observe(time.Now(), 2*time.Millisecond, 1, 0)
	st.Observe(time.Now(), 4*time.Millisecond, 1, 1)

	srv := httptest.NewServer(Handler(tr))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap RegistrySnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["frames"] != 3 {
		t.Errorf("counter frames = %d", snap.Counters["frames"])
	}
	if snap.Gauges["load"] != 0.5 {
		t.Errorf("gauge load = %v", snap.Gauges["load"])
	}
	h, ok := snap.Histograms["track.total"]
	if !ok {
		t.Fatal("histogram track.total missing from /debug/vars")
	}
	if h.Count != 2 || h.P50Ns > h.P99Ns || h.P99Ns > h.MaxNs {
		t.Errorf("histogram not monotone: %+v", h)
	}

	resp2, err := srv.Client().Get(srv.URL + "/debug/spans?n=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var spans struct {
		Spans []SpanRecord `json:"spans"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&spans); err != nil {
		t.Fatal(err)
	}
	if len(spans.Spans) != 2 {
		t.Errorf("got %d spans", len(spans.Spans))
	}

	resp3, err := srv.Client().Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != 200 {
		t.Errorf("pprof cmdline status %d", resp3.StatusCode)
	}
}

func TestSummary(t *testing.T) {
	h := NewHistogram("s")
	h.Observe(10 * time.Millisecond)
	h.Observe(20 * time.Millisecond)
	s := h.Summary()
	if s.N != 2 || s.Total != 30*time.Millisecond || s.Mean != 15*time.Millisecond {
		t.Errorf("summary %+v", s)
	}
	if s.Min != 10*time.Millisecond || s.Max != 20*time.Millisecond {
		t.Errorf("summary min/max %+v", s)
	}
}

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
			c.Add(2)
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 8*1000+8*2 {
		t.Errorf("counter = %d", got)
	}
	var g Gauge
	if g.Load() != 0 {
		t.Error("zero gauge not 0")
	}
	g.Set(-0.125)
	if g.Load() != -0.125 {
		t.Errorf("gauge = %v", g.Load())
	}
}
