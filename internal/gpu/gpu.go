// Package gpu simulates the edge server's accelerator (an NVIDIA V100
// in the paper's testbed): a device with a fixed number of parallel
// lanes and kernel-launch overhead (§4.2.1). It exists for the paper's
// Figs. 5 and 8 and the lane ablation, which attach a Device directly
// to a tracker; the serving path runs internal/trackpool's workers and
// reports wall time, so nothing outside internal/exp selects it.
//
// Substitution note (DESIGN.md): the "kernels" execute the same Go
// loops as the CPU path, genuinely in parallel across a worker pool,
// so the CPU-vs-GPU latency shape of Figs. 5 and 8 is reproduced by
// real concurrency rather than a fabricated constant.
package gpu

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Config describes the simulated device.
type Config struct {
	// Lanes is the number of concurrently executing lanes (worker
	// goroutines). 0 means all available cores.
	Lanes int
	// LaunchOverhead models the fixed cost of a kernel launch
	// (host-device handoff). The V100-class default is ~10 us.
	LaunchOverhead time.Duration
	// MinGrain is the smallest number of work items per lane dispatch;
	// it models thread-block granularity.
	MinGrain int
}

// DefaultConfig returns a V100-like device sized to the host.
func DefaultConfig() Config {
	return Config{
		Lanes:          0,
		LaunchOverhead: 10 * time.Microsecond,
		MinGrain:       8,
	}
}

// Stats aggregates device activity.
type Stats struct {
	Kernels   uint64
	WorkItems uint64
	BusyTime  time.Duration
}

// Device is a simulated GPU. It implements feature.ModeledParallelizer,
// so a tracker hands it directly to the extraction and
// search-local-points stages.
type Device struct {
	cfg   Config
	sem   chan struct{} // lane tokens, shared by concurrent kernels
	mu    sync.Mutex
	stats Stats

	kernels   atomic.Uint64
	workItems atomic.Uint64
	wallNS    atomic.Int64 // cumulative wall-clock kernel time
	modelNS   atomic.Int64 // cumulative modeled device time
}

// NewDevice creates a device with the given config.
func NewDevice(cfg Config) *Device {
	if cfg.Lanes <= 0 {
		cfg.Lanes = runtime.NumCPU()
	}
	if cfg.MinGrain <= 0 {
		cfg.MinGrain = 8
	}
	d := &Device{cfg: cfg, sem: make(chan struct{}, cfg.Lanes)}
	for i := 0; i < cfg.Lanes; i++ {
		d.sem <- struct{}{}
	}
	return d
}

// Lanes returns the number of parallel lanes.
func (d *Device) Lanes() int { return d.cfg.Lanes }

// Run executes n work items as one kernel launch: items are split into
// lane-sized grains that execute concurrently, bounded by the device's
// lane count (shared with every other tracker on the device). It
// implements feature.Parallelizer.
//
// Besides executing the work, Run keeps a modeled-time ledger: the
// kernel's serial busy time (sum of per-grain execution times) divided
// by the effective parallelism, plus the launch overhead. Modeled time
// is what a device with the configured lane count would have taken; it
// tracks the measured wall time only while the host has at least as
// many idle cores as the device has lanes. Counters exposes both so
// callers can report device-accurate stage latencies (see
// feature.ModeledParallelizer).
func (d *Device) Run(n int, f func(i int)) {
	if n <= 0 {
		return
	}
	start := time.Now()
	d.kernels.Add(1)
	d.workItems.Add(uint64(n))
	if d.cfg.LaunchOverhead > 0 {
		// Model the launch handoff as real latency: a calibrated spin
		// (sleep granularity on Linux is too coarse for ~10 us).
		spinFor(d.cfg.LaunchOverhead)
	}
	grain := (n + d.cfg.Lanes - 1) / d.cfg.Lanes
	if grain < d.cfg.MinGrain {
		grain = d.cfg.MinGrain
	}
	var wg sync.WaitGroup
	var busyNS atomic.Int64
	grains := 0
	for lo := 0; lo < n; lo += grain {
		hi := lo + grain
		if hi > n {
			hi = n
		}
		grains++
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			// Acquire a lane (shared across concurrent kernels).
			<-d.sem
			defer func() { d.sem <- struct{}{} }()
			g0 := time.Now()
			for i := lo; i < hi; i++ {
				f(i)
			}
			busyNS.Add(int64(time.Since(g0)))
		}(lo, hi)
	}
	wg.Wait()
	wall := time.Since(start)
	factor := grains
	if factor > d.cfg.Lanes {
		factor = d.cfg.Lanes
	}
	if factor < 1 {
		factor = 1
	}
	modeled := int64(d.cfg.LaunchOverhead) + busyNS.Load()/int64(factor)
	d.wallNS.Add(int64(wall))
	d.modelNS.Add(modeled)
	d.mu.Lock()
	d.stats.BusyTime += wall
	d.mu.Unlock()
}

// Counters returns the cumulative (wall, modeled) kernel time. It
// implements feature.ModeledParallelizer.
func (d *Device) Counters() (wall, modeled time.Duration) {
	return time.Duration(d.wallNS.Load()), time.Duration(d.modelNS.Load())
}

// Stats returns a snapshot of device activity.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.stats
	s.Kernels = d.kernels.Load()
	s.WorkItems = d.workItems.Load()
	return s
}

func (d *Device) String() string {
	return fmt.Sprintf("gpu(lanes=%d, launch=%v)", d.cfg.Lanes, d.cfg.LaunchOverhead)
}

// spinFor busy-waits for approximately the given duration.
func spinFor(dur time.Duration) {
	end := time.Now().Add(dur)
	for time.Now().Before(end) {
	}
}
