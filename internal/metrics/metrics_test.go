package metrics

import (
	"math"
	"testing"
	"time"

	"slamshare/internal/geom"
)

func line(t0, t1, dt float64, off geom.Vec3) Trajectory {
	var tr Trajectory
	for t := t0; t <= t1+1e-9; t += dt {
		tr.Append(t, geom.Vec3{X: t}.Add(off))
	}
	return tr
}

func TestTrajectoryAppendOrdered(t *testing.T) {
	var tr Trajectory
	tr.Append(1, geom.Vec3{X: 1})
	tr.Append(2, geom.Vec3{X: 2})
	tr.Append(1.5, geom.Vec3{X: 99}) // out of order: dropped
	if len(tr) != 2 {
		t.Errorf("len = %d", len(tr))
	}
}

func TestTrajectoryAtInterpolates(t *testing.T) {
	tr := line(0, 10, 1, geom.Vec3{})
	p, ok := tr.At(2.5)
	if !ok || math.Abs(p.X-2.5) > 1e-12 {
		t.Errorf("At(2.5) = %v", p)
	}
	// Clamping.
	if p, _ := tr.At(-5); p.X != 0 {
		t.Error("start clamp failed")
	}
	if p, _ := tr.At(100); p.X != 10 {
		t.Error("end clamp failed")
	}
	if _, ok := (Trajectory{}).At(1); ok {
		t.Error("empty trajectory answered")
	}
}

func TestATEExact(t *testing.T) {
	truth := line(0, 10, 0.5, geom.Vec3{})
	est := line(0, 10, 1, geom.Vec3{})
	if a := ATE(est, truth); a > 1e-12 {
		t.Errorf("perfect estimate ATE = %v", a)
	}
	// Constant 0.3 m offset -> ATE 0.3.
	off := line(0, 10, 1, geom.Vec3{Y: 0.3})
	if a := ATE(off, truth); math.Abs(a-0.3) > 1e-9 {
		t.Errorf("offset ATE = %v", a)
	}
	if ATE(Trajectory{}, truth) != 0 {
		t.Error("empty estimate should give 0")
	}
}

func TestShortTermATEIgnoresOldError(t *testing.T) {
	truth := line(0, 20, 0.5, geom.Vec3{})
	// Estimate bad before t=10, perfect after.
	var est Trajectory
	for tt := 0.0; tt <= 20; tt += 0.5 {
		p := geom.Vec3{X: tt}
		if tt < 10 {
			p.Y = 2
		}
		est.Append(tt, p)
	}
	cum := ATE(est, truth)
	short := ShortTermATE(est, truth, 20, 5)
	if short > 1e-9 {
		t.Errorf("short-term ATE over clean window = %v", short)
	}
	if cum < 1 {
		t.Errorf("cumulative ATE should reflect old error: %v", cum)
	}
	// Short-term at t=10 covers the bad region.
	if s := ShortTermATE(est, truth, 10, 5); s < 1 {
		t.Errorf("short-term over bad window = %v", s)
	}
}

func TestCumulativeSeriesMonotoneTime(t *testing.T) {
	truth := line(0, 10, 0.5, geom.Vec3{})
	est := line(0, 10, 0.5, geom.Vec3{Y: 0.1})
	series := CumulativeSeries(est, truth, 1)
	if len(series) < 9 {
		t.Fatalf("series too short: %d", len(series))
	}
	for i := 1; i < len(series); i++ {
		if series[i].T <= series[i-1].T {
			t.Fatal("series time not increasing")
		}
		if math.Abs(series[i].ATE-0.1) > 1e-9 {
			t.Fatalf("ATE at %v = %v", series[i].T, series[i].ATE)
		}
	}
	if CumulativeSeries(Trajectory{}, truth, 1) != nil {
		t.Error("empty series should be nil")
	}
}

func TestShortTermSeries(t *testing.T) {
	truth := line(0, 20, 0.5, geom.Vec3{})
	est := line(0, 20, 0.5, geom.Vec3{Y: 0.2})
	s := ShortTermSeries(est, truth, 2, 5)
	if len(s) == 0 {
		t.Fatal("empty series")
	}
	for _, p := range s {
		if math.Abs(p.ATE-0.2) > 1e-9 {
			t.Fatalf("short-term ATE = %v", p.ATE)
		}
	}
}

func TestCPUMeter(t *testing.T) {
	m := NewCPUMeter()
	m.Add(30 * time.Millisecond)
	m.Time(func() { time.Sleep(5 * time.Millisecond) })
	if m.Busy() < 35*time.Millisecond {
		t.Errorf("busy = %v", m.Busy())
	}
	u := m.UtilizationOver(100 * time.Millisecond)
	if u < 0.35 || u > 0.6 {
		t.Errorf("utilization = %v", u)
	}
	if m.UtilizationOver(0) != 0 {
		t.Error("zero wall should give 0")
	}
}
