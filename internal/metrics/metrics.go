// Package metrics is trajectory evaluation only: the paper's absolute
// trajectory error (cumulative and short-term, Appendix C) over
// Trajectory values, and the CPU busy-time meter behind Fig. 13.
// Everything a running server counts or times — counters, gauges,
// latency histograms — lives in internal/obs.
package metrics

import (
	"math"
	"sort"
	"sync"
	"time"

	"slamshare/internal/geom"
)

// TrajectoryPoint is a timestamped position estimate.
type TrajectoryPoint struct {
	T   float64 // seconds
	Pos geom.Vec3
}

// Trajectory is a time-ordered sequence of positions.
type Trajectory []TrajectoryPoint

// Append adds a point, keeping time order (points must arrive in
// order; out-of-order points are dropped).
func (tr *Trajectory) Append(t float64, pos geom.Vec3) {
	if n := len(*tr); n > 0 && (*tr)[n-1].T >= t {
		return
	}
	*tr = append(*tr, TrajectoryPoint{T: t, Pos: pos})
}

// At interpolates the position at time t (clamped to the ends).
func (tr Trajectory) At(t float64) (geom.Vec3, bool) {
	n := len(tr)
	if n == 0 {
		return geom.Vec3{}, false
	}
	if t <= tr[0].T {
		return tr[0].Pos, true
	}
	if t >= tr[n-1].T {
		return tr[n-1].Pos, true
	}
	i := sort.Search(n, func(i int) bool { return tr[i].T >= t })
	a, b := tr[i-1], tr[i]
	u := (t - a.T) / (b.T - a.T)
	return a.Pos.Lerp(b.Pos, u), true
}

// Duration returns the time span covered.
func (tr Trajectory) Duration() float64 {
	if len(tr) == 0 {
		return 0
	}
	return tr[len(tr)-1].T - tr[0].T
}

// ATE returns the RMSE of the estimated trajectory against ground
// truth, evaluated at the estimate's timestamps — the cumulative ATE
// of the paper. Returns 0 for empty inputs.
func ATE(est, truth Trajectory) float64 {
	return ATEWindow(est, truth, math.Inf(-1), math.Inf(1))
}

// ATEWindow returns the RMSE restricted to estimate samples with
// t in [t0, t1].
func ATEWindow(est, truth Trajectory, t0, t1 float64) float64 {
	var sum float64
	n := 0
	for _, p := range est {
		if p.T < t0 || p.T > t1 {
			continue
		}
		gt, ok := truth.At(p.T)
		if !ok {
			continue
		}
		d := p.Pos.Sub(gt).NormSq()
		sum += d
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(n))
}

// ShortTermATE returns the RMSE over the last `window` seconds of the
// estimate ending at time t — the paper's short-term ATE (Appendix C),
// reflecting the user's most recent experience.
func ShortTermATE(est, truth Trajectory, t, window float64) float64 {
	return ATEWindow(est, truth, t-window, t)
}

// CumulativePoint is one sample of an ATE-versus-time series.
type CumulativePoint struct {
	T   float64
	ATE float64
}

// CumulativeSeries evaluates the cumulative ATE at regular intervals —
// the curves of Figs. 10a, 10c and 12a.
func CumulativeSeries(est, truth Trajectory, step float64) []CumulativePoint {
	if len(est) == 0 || step <= 0 {
		return nil
	}
	var out []CumulativePoint
	end := est[len(est)-1].T
	for t := est[0].T + step; t <= end+1e-9; t += step {
		out = append(out, CumulativePoint{
			T:   t,
			ATE: ATEWindow(est, truth, math.Inf(-1), t),
		})
	}
	return out
}

// ShortTermSeries evaluates the short-term ATE at regular intervals —
// the curves of Figs. 12b and 12c.
func ShortTermSeries(est, truth Trajectory, step, window float64) []CumulativePoint {
	if len(est) == 0 || step <= 0 {
		return nil
	}
	var out []CumulativePoint
	end := est[len(est)-1].T
	for t := est[0].T + window; t <= end+1e-9; t += step {
		out = append(out, CumulativePoint{
			T:   t,
			ATE: ShortTermATE(est, truth, t, window),
		})
	}
	return out
}

// CPUMeter accumulates busy time of a component against wall-clock
// time — the substitution for psutil in Fig. 13 (see DESIGN.md).
type CPUMeter struct {
	mu   sync.Mutex
	busy time.Duration
}

// NewCPUMeter returns a meter with no busy time accounted.
func NewCPUMeter() *CPUMeter {
	return &CPUMeter{}
}

// Add accounts d of busy compute time.
func (c *CPUMeter) Add(d time.Duration) {
	c.mu.Lock()
	c.busy += d
	c.mu.Unlock()
}

// Time runs f and accounts its duration.
func (c *CPUMeter) Time(f func()) {
	t0 := time.Now()
	f()
	c.Add(time.Since(t0))
}

// Busy returns the accumulated busy time.
func (c *CPUMeter) Busy() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.busy
}

// UtilizationOver returns busy/wall against an explicit wall duration,
// for replaying recorded runs.
func (c *CPUMeter) UtilizationOver(wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return float64(c.busy) / float64(wall)
}
