package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Log-linear bucketing (HDR-histogram style): each power-of-two octave
// is split into 2^subBits linear sub-buckets, so the relative
// quantization error is bounded by 2^-subBits (12.5%) while Observe
// stays a shift-and-mask plus one atomic add. Values below 2^(subBits+1)
// ns are exact.
const (
	subBits    = 3
	subCount   = 1 << subBits
	numBuckets = (64-subBits)*subCount + subCount // covers all of int64
)

// bucketOf maps a non-negative nanosecond value to its bucket index.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < 2*subCount {
		return int(u) // exact buckets for tiny values
	}
	exp := bits.Len64(u) - 1 // position of the most significant bit
	sub := (u >> (uint(exp) - subBits)) & (subCount - 1)
	return int(exp-subBits)*subCount + int(sub) + subCount
}

// bucketBounds returns the [lo, hi) nanosecond range of bucket b.
func bucketBounds(b int) (lo, hi int64) {
	if b < 2*subCount {
		return int64(b), int64(b) + 1
	}
	block := (b - subCount) / subCount
	sub := (b - subCount) % subCount
	exp := uint(block + subBits)
	width := int64(1) << (exp - subBits)
	lo = int64(1)<<exp + int64(sub)*width
	return lo, lo + width
}

// bucketMid returns the deterministic representative value of bucket b
// (its midpoint), used when reading quantiles back out.
func bucketMid(b int) int64 {
	lo, hi := bucketBounds(b)
	return lo + (hi-lo)/2
}

// Histogram is a fixed-size atomic latency histogram: Observe is a
// few atomic operations with no allocation and no lock, so it is safe
// on the tracking hot path; quantiles are computed on read by walking
// the bucket counts (no sample retention, no sorting). The zero value
// is NOT ready to use; call NewHistogram.
type Histogram struct {
	name    string
	count   atomic.Uint64
	sum     atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
	buckets [numBuckets]atomic.Uint64
}

// NewHistogram returns an empty histogram with the given name.
func NewHistogram(name string) *Histogram {
	h := &Histogram{name: name}
	h.min.Store(math.MaxInt64)
	return h
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Snapshot captures a consistent-enough view of the histogram for
// reading quantiles. Buckets are copied with plain atomic loads;
// observations racing the copy may be partially included, which only
// perturbs in-flight samples, never recorded ones.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Name:  h.name,
		Count: h.count.Load(),
		Sum:   time.Duration(h.sum.Load()),
	}
	if s.Count > 0 {
		s.Min = time.Duration(h.min.Load())
		s.Max = time.Duration(h.max.Load())
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, BucketCount{Lo: bucketLo(i), N: n})
			s.bucketIdx = append(s.bucketIdx, i)
		}
	}
	return s
}

func bucketLo(b int) time.Duration {
	lo, _ := bucketBounds(b)
	return time.Duration(lo)
}

// BucketCount is one non-empty bucket of a snapshot.
type BucketCount struct {
	Lo time.Duration `json:"lo_ns"`
	N  uint64        `json:"n"`
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Name    string
	Count   uint64
	Sum     time.Duration
	Min     time.Duration
	Max     time.Duration
	Buckets []BucketCount

	bucketIdx []int // parallel to Buckets: original bucket indices
}

// Quantile returns the q-quantile (0 < q <= 1) by nearest rank: the
// value whose cumulative bucket count first reaches ceil(q*N). The
// returned value is the matched bucket's midpoint, clamped to the
// observed min/max so exact extremes survive quantization.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank >= s.Count {
		// The rank-N sample is the maximum itself; report it exactly
		// rather than its bucket's midpoint.
		return s.Max
	}
	var cum uint64
	for i, bc := range s.Buckets {
		cum += bc.N
		if cum >= rank {
			v := time.Duration(bucketMid(s.bucketIdx[i]))
			if v < s.Min {
				v = s.Min
			}
			if v > s.Max {
				v = s.Max
			}
			return v
		}
	}
	return s.Max
}

// Mean returns the average observed duration.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Summary condenses a snapshot to the quantiles the evaluation reports.
func (s HistogramSnapshot) Summary() Summary {
	return Summary{
		N:     int64(s.Count),
		Mean:  s.Mean(),
		P50:   s.Quantile(0.50),
		P90:   s.Quantile(0.90),
		P99:   s.Quantile(0.99),
		Min:   s.Min,
		Max:   s.Max,
		Total: s.Sum,
	}
}

// Summary is the latency digest of one histogram, as server/session
// stats report it.
type Summary struct {
	N                   int64
	Mean, P50, P90, P99 time.Duration
	Min, Max, Total     time.Duration
}

// Summary is shorthand for Snapshot().Summary().
func (h *Histogram) Summary() Summary { return h.Snapshot().Summary() }
