// Package overload holds the server's load-shedding and admission
// policies: a ceiling on in-flight merges, a
// jittered exponential backoff schedule for merge retries and client
// reconnects, and per-session frame-lag accounting that decides when
// an uplink queue is beyond its wall-clock budget and stale frames
// should be shed (process-latest semantics, like a real SLAM rig that
// always grabs the newest camera frame).
package overload

import (
	"errors"
	"math"
	"sync/atomic"
	"time"
)

// ErrOverloaded is returned when a global ceiling (sessions, merges)
// rejects new work. Callers should surface it to the client rather
// than queueing: under sustained overload the queue never drains.
var ErrOverloaded = errors.New("overload: server at capacity")

// Gate enforces the global ceiling on in-flight merge attempts. A
// zero ceiling means unlimited.
type Gate struct {
	maxMerges int64
	merges    atomic.Int64
}

// NewGate returns a gate with the given merge ceiling (0 = unlimited).
func NewGate(maxMerges int) *Gate {
	return &Gate{maxMerges: int64(maxMerges)}
}

// TryAcquireMerge reserves a merge slot; false means the caller should
// skip this attempt and retry at a later keyframe.
func (g *Gate) TryAcquireMerge() bool {
	if n := g.merges.Add(1); g.maxMerges > 0 && n > g.maxMerges {
		g.merges.Add(-1)
		return false
	}
	return true
}

// ReleaseMerge returns a slot taken by TryAcquireMerge.
func (g *Gate) ReleaseMerge() { g.merges.Add(-1) }

// Merges reports the current in-flight merge count.
func (g *Gate) Merges() int64 { return g.merges.Load() }

// Backoff is a jittered exponential retry schedule. Delays are
// unitless: the merge path reads them as keyframes to wait, the client
// reconnect path as milliseconds to sleep.
//
// The jitter is a deterministic hash of (Seed, key, attempt) rather
// than a shared RNG draw, so concurrent sessions' schedules never
// depend on goroutine interleaving — chaos runs with a fixed seed
// reproduce the same schedule every time.
type Backoff struct {
	Base   float64 // delay for attempt 0
	Factor float64 // growth per attempt
	Max    float64 // cap on the unjittered delay
	Jitter float64 // +/- fraction applied after capping
	// MaxAttempts bounds retries: Exhausted reports true once this
	// many attempts have failed. 0 means unbounded.
	MaxAttempts int
	Seed        int64
}

// Delay returns the jittered delay before retry number attempt
// (0-based) for the given key (e.g. a client ID).
func (b Backoff) Delay(key uint64, attempt int) float64 {
	if attempt < 0 {
		attempt = 0
	}
	raw := b.Base * math.Pow(b.Factor, float64(attempt))
	if b.Max > 0 && raw > b.Max {
		raw = b.Max
	}
	if b.Jitter > 0 {
		u := unit(uint64(b.Seed) ^ key*0x9E3779B97F4A7C15 ^ uint64(attempt)*0xBF58476D1CE4E5B9)
		raw *= 1 + b.Jitter*(2*u-1)
	}
	if raw < 0 {
		raw = 0
	}
	return raw
}

// DelaySteps returns Delay rounded up to whole steps (keyframes).
func (b Backoff) DelaySteps(key uint64, attempt int) int {
	return int(math.Ceil(b.Delay(key, attempt)))
}

// DelayDuration returns Delay read as milliseconds.
func (b Backoff) DelayDuration(key uint64, attempt int) time.Duration {
	return time.Duration(b.Delay(key, attempt) * float64(time.Millisecond))
}

// Exhausted reports whether attempt (0-based, about to run) is past
// the retry budget.
func (b Backoff) Exhausted(attempt int) bool {
	return b.MaxAttempts > 0 && attempt >= b.MaxAttempts
}

// unit maps a 64-bit value to [0,1) via the splitmix64 finalizer.
func unit(x uint64) float64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// LagTracker is per-session frame-lag accounting: it estimates the
// camera frame interval from uplink timestamps (EWMA over stamp
// deltas) and decides whether the frames queued behind the one being
// processed represent more wall-clock lag than the session's budget.
// It is not goroutine-safe; the session's processing loop owns it.
type LagTracker struct {
	budget    time.Duration
	interval  float64 // seconds, EWMA
	lastStamp float64
	have      bool
	gapped    bool
}

// gapFactor separates a mid-stream stall from a slow camera: a stamp
// delta this many times the current interval estimate is treated as a
// gap and skipped, unless the previous delta was also a gap (a
// genuine frame-rate drop shows up as consecutive large deltas and is
// folded in from the second one).
const gapFactor = 4

// NewLagTracker returns a tracker with the given wall-clock lag
// budget. A zero budget disables shedding (ShouldShed always false).
func NewLagTracker(budget time.Duration) *LagTracker {
	return &LagTracker{budget: budget}
}

// Note feeds one uplink frame's capture timestamp (seconds).
//
// A session that goes quiet mid-stream and resumes hands the tracker
// one huge stamp delta. Folding that into the EWMA would inflate the
// interval estimate by the stall length, and the very first queued
// frames after resume would read as budget-busting lag and be shed
// spuriously (the estimate only decays back over ~1/alpha frames).
// Such gaps are skipped once; only a second consecutive large delta —
// a real frame-rate change, not a stall — updates the estimate.
func (l *LagTracker) Note(stamp float64) {
	if l.have {
		if dt := stamp - l.lastStamp; dt > 0 {
			const alpha = 0.2
			switch {
			case l.interval == 0:
				l.interval = dt
			case dt >= gapFactor*l.interval && !l.gapped:
				l.gapped = true // stall suspected; hold the estimate
			default:
				l.interval += alpha * (dt - l.interval)
				l.gapped = false
			}
		}
	}
	l.lastStamp = stamp
	l.have = true
}

// Interval returns the current frame-interval estimate (0 until two
// stamps have been seen).
func (l *LagTracker) Interval() time.Duration {
	return time.Duration(l.interval * float64(time.Second))
}

// ShouldShed reports whether, with pending frames queued behind the
// one being processed, the session has fallen beyond its wall-clock
// budget: pending x frame-interval > budget. With no interval estimate
// yet, any positive queue on a positive budget sheds — a queue at all
// means the processor is behind the camera.
func (l *LagTracker) ShouldShed(pending int) bool {
	if l.budget <= 0 || pending <= 0 {
		return false
	}
	if l.interval <= 0 {
		return true
	}
	lag := time.Duration(float64(pending) * l.interval * float64(time.Second))
	return lag > l.budget
}
