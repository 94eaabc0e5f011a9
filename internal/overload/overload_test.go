package overload

import (
	"math"
	"testing"
	"time"
)

func TestGateMergeCeiling(t *testing.T) {
	g := NewGate(1)
	if !g.TryAcquireMerge() {
		t.Fatal("first merge slot refused")
	}
	if g.TryAcquireMerge() {
		t.Fatal("second merge slot granted past ceiling")
	}
	g.ReleaseMerge()
	if !g.TryAcquireMerge() {
		t.Fatal("merge slot refused after release")
	}
	// Unlimited gate never refuses.
	u := NewGate(0)
	for i := 0; i < 100; i++ {
		if !u.TryAcquireMerge() {
			t.Fatal("unlimited merge gate refused")
		}
	}
}

// TestBackoffPinnedSchedule pins the exact merge-retry schedule for
// the default policy and seed: the jitter is a deterministic hash of
// (seed, key, attempt), so these values are stable across runs,
// platforms, and goroutine interleavings. If the policy or hash
// changes, this test changes with it — deliberately.
func TestBackoffPinnedSchedule(t *testing.T) {
	b := Backoff{Base: 3, Factor: 2, Max: 24, Jitter: 0.25, MaxAttempts: 4, Seed: 0x51A35}
	got := make([]int, 6)
	for i := range got {
		got[i] = b.DelaySteps(7, i)
	}
	want := []int{3, 6, 11, 28, 27, 24}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("schedule[%d] = %d, want %d (full: %v)", i, got[i], want[i], got)
		}
	}

	// A different client gets a different jitter draw, same envelope.
	for i := 0; i < 6; i++ {
		d := b.Delay(8, i)
		raw := math.Min(24, 3*math.Pow(2, float64(i)))
		if d < raw*0.75-1e-9 || d > raw*1.25+1e-9 {
			t.Fatalf("client 8 attempt %d: delay %v outside +/-25%% of %v", i, d, raw)
		}
	}

	if b.Exhausted(3) {
		t.Error("attempt 3 of 4 reported exhausted")
	}
	if !b.Exhausted(4) {
		t.Error("attempt 4 of 4 not reported exhausted")
	}
	if (Backoff{Base: 1, Factor: 2}).Exhausted(1 << 20) {
		t.Error("unbounded policy reported exhausted")
	}
}

func TestBackoffDeterministicAcrossCalls(t *testing.T) {
	b := Backoff{Base: 50, Factor: 2, Max: 2000, Jitter: 0.5, Seed: 42}
	for i := 0; i < 8; i++ {
		if a, c := b.Delay(3, i), b.Delay(3, i); a != c {
			t.Fatalf("attempt %d: %v != %v on repeat call", i, a, c)
		}
	}
	if b.DelayDuration(3, 0) <= 0 {
		t.Fatal("zero duration for first reconnect delay")
	}
	if d := b.DelayDuration(3, 30); d > 3*time.Second {
		t.Fatalf("capped delay %v exceeds cap+jitter", d)
	}
}

func TestLagTrackerShedDecision(t *testing.T) {
	l := NewLagTracker(100 * time.Millisecond)
	// 20 FPS camera: 50 ms interval.
	for i := 0; i < 20; i++ {
		l.Note(float64(i) * 0.05)
	}
	iv := l.Interval()
	if iv < 40*time.Millisecond || iv > 60*time.Millisecond {
		t.Fatalf("interval estimate %v, want ~50ms", iv)
	}
	if l.ShouldShed(0) {
		t.Error("empty queue shed")
	}
	if l.ShouldShed(1) {
		t.Error("one pending frame (50ms < 100ms budget) shed")
	}
	if !l.ShouldShed(3) {
		t.Error("three pending frames (150ms > 100ms budget) not shed")
	}
}

func TestLagTrackerDisabledAndCold(t *testing.T) {
	if NewLagTracker(0).ShouldShed(100) {
		t.Error("zero budget should disable shedding")
	}
	cold := NewLagTracker(time.Second)
	cold.Note(1.0) // single stamp: no interval estimate yet
	if !cold.ShouldShed(1) {
		t.Error("cold tracker with a queue did not shed")
	}
	// Out-of-order stamps must not poison the estimate.
	l := NewLagTracker(time.Second)
	l.Note(2.0)
	l.Note(1.0)
	l.Note(2.05)
	if l.Interval() < 0 {
		t.Errorf("negative interval %v", l.Interval())
	}
}

func TestLagTrackerStallResume(t *testing.T) {
	// Regression: a session that stalls mid-stream and resumes must
	// not have the stall folded into its interval EWMA — the inflated
	// estimate would shed the first frames after resume even though
	// the camera never slowed down.
	l := NewLagTracker(200 * time.Millisecond)
	// 30 FPS for a second.
	stamp := 0.0
	for i := 0; i < 30; i++ {
		l.Note(stamp)
		stamp += 1.0 / 30
	}
	before := l.Interval()

	// 5-second uplink stall, then the stream resumes at 30 FPS.
	stamp += 5.0
	l.Note(stamp)
	if iv := l.Interval(); iv != before {
		t.Fatalf("stall moved the interval estimate: %v -> %v", before, iv)
	}
	// A short queue right after resume is normal catch-up, not lag.
	if l.ShouldShed(2) {
		t.Error("spurious shed on resume (2 pending, ~66ms < 200ms budget)")
	}
	// And the estimate keeps tracking the resumed stream.
	for i := 0; i < 10; i++ {
		stamp += 1.0 / 30
		l.Note(stamp)
	}
	if iv := l.Interval(); iv < 25*time.Millisecond || iv > 45*time.Millisecond {
		t.Errorf("post-resume interval %v, want ~33ms", iv)
	}
}

func TestLagTrackerRateChangeStillAdapts(t *testing.T) {
	// A genuine frame-rate drop (consecutive large deltas) must still
	// move the estimate: only isolated gaps are skipped.
	l := NewLagTracker(time.Second)
	stamp := 0.0
	for i := 0; i < 30; i++ {
		l.Note(stamp)
		stamp += 1.0 / 30
	}
	// Camera drops to 5 FPS (200ms deltas, 6x the estimate).
	for i := 0; i < 40; i++ {
		stamp += 0.2
		l.Note(stamp)
	}
	if iv := l.Interval(); iv < 150*time.Millisecond {
		t.Errorf("interval %v never adapted to the 200ms rate", iv)
	}
}
