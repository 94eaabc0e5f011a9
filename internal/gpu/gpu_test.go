package gpu

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"slamshare/internal/dataset"

	"slamshare/internal/camera"
	"slamshare/internal/feature"
)

func TestRunExecutesAllItems(t *testing.T) {
	d := NewDevice(Config{Lanes: 4, LaunchOverhead: 0, MinGrain: 2})
	var hits [100]int32
	d.Run(100, func(i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("item %d executed %d times", i, h)
		}
	}
	d.Run(0, func(i int) { t.Error("zero-item kernel ran work") })
}

func TestRunActuallyParallel(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("single-core host")
	}

	d := NewDevice(Config{Lanes: runtime.NumCPU(), LaunchOverhead: 0, MinGrain: 1})
	var peak, cur atomic.Int32
	d.Run(runtime.NumCPU()*2, func(i int) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
	})
	if peak.Load() < 2 {
		t.Errorf("peak concurrency %d, expected >= 2", peak.Load())
	}
}

func TestDeviceSpeedsUpExtraction(t *testing.T) {
	seq := dataset.MH04(camera.Stereo)
	frame := seq.Frame(0)
	cfg := feature.DefaultConfig()
	cpu := &feature.Extractor{Cfg: cfg, Par: feature.SerialRunner{}}
	dev := NewDevice(Config{Lanes: 8, LaunchOverhead: 10 * time.Microsecond, MinGrain: 8})
	gpuEx := &feature.Extractor{Cfg: cfg, Par: dev}

	// Warm up both paths.
	cpu.Extract(frame)
	gpuEx.Extract(frame)

	const reps = 5
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		cpu.Extract(frame)
	}
	cpuDur := time.Since(t0) / reps

	w0, m0 := dev.Counters()
	t1 := time.Now()
	for i := 0; i < reps; i++ {
		gpuEx.Extract(frame)
	}
	wall := time.Since(t1) / reps
	w1, m1 := dev.Counters()
	// Device-accurate extraction time: wall outside kernels + modeled
	// kernel time (what the tracker's stage timer reports).
	modeled := wall - (w1-w0)/reps + (m1-m0)/reps
	t.Logf("extraction: cpu %v, gpu modeled %v (%.1fx)", cpuDur, modeled, float64(cpuDur)/float64(modeled))
	// The paper reports a >50%% reduction on stereo; the modeled device
	// must at least show a clear win.
	if float64(modeled) > 0.75*float64(cpuDur) {
		t.Errorf("GPU path not faster: cpu %v vs modeled %v", cpuDur, modeled)
	}
	// Results must be identical regardless of execution order.
	a := cpu.Extract(frame)
	b := gpuEx.Extract(frame)
	if len(a) != len(b) {
		t.Fatalf("cpu %d keypoints vs gpu %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("keypoint %d differs between cpu and gpu paths", i)
		}
	}
}

func TestCountersMonotonic(t *testing.T) {
	d := NewDevice(Config{Lanes: 4, LaunchOverhead: 0, MinGrain: 1})
	w0, m0 := d.Counters()
	d.Run(50, func(i int) { time.Sleep(10 * time.Microsecond) })
	w1, m1 := d.Counters()
	if w1 <= w0 || m1 <= m0 {
		t.Errorf("counters did not advance: wall %v->%v modeled %v->%v", w0, w1, m0, m1)
	}
	// With 4 lanes the modeled time must be well under the serial time
	// (50 x 10us = 500us serial; modeled ~125us + overheads).
	if m1-m0 > (w1 - w0) {
		t.Errorf("modeled %v exceeds wall %v", m1-m0, w1-w0)
	}
}

func TestStatsAccumulate(t *testing.T) {
	d := NewDevice(Config{Lanes: 2, LaunchOverhead: 0, MinGrain: 1})
	d.Run(10, func(i int) {})
	d.Run(5, func(i int) {})
	s := d.Stats()
	if s.Kernels != 2 {
		t.Errorf("kernels = %d", s.Kernels)
	}
	if s.WorkItems != 15 {
		t.Errorf("work items = %d", s.WorkItems)
	}
}

func TestDefaultConfigSized(t *testing.T) {
	d := NewDevice(DefaultConfig())
	if d.Lanes() != runtime.NumCPU() {
		t.Errorf("default lanes = %d, want NumCPU", d.Lanes())
	}
	if d.String() == "" {
		t.Error("empty String()")
	}
}
