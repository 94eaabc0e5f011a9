// Package feature implements the ORB feature pipeline of ORB-SLAM3
// that the paper accelerates: FAST-9 corner detection over a scale
// pyramid, intensity-centroid orientation, rotated-BRIEF 256-bit
// descriptors, quadtree keypoint distribution, Hamming-distance
// matching (brute-force and stereo), and the row-local block search
// (Extractor.StereoSearch) the serving path takes stereo depth from
// instead of extracting the right image. Detection and description have
// both sequential forms (the paper's CPU baseline) and data-parallel
// forms driven through the Parallelizer interface (the serving path's
// internal/trackpool workers; internal/gpu for the paper's Fig. 5/8).
package feature

import (
	"math/bits"
	"time"

	"slamshare/internal/geom"
)

// Descriptor is a 256-bit binary BRIEF descriptor stored as four
// 64-bit words for fast Hamming distance.
type Descriptor [4]uint64

// DescriptorBytes is the serialized size of a Descriptor.
const DescriptorBytes = 32

// Distance returns the Hamming distance between two descriptors.
func Distance(a, b Descriptor) int {
	return bits.OnesCount64(a[0]^b[0]) +
		bits.OnesCount64(a[1]^b[1]) +
		bits.OnesCount64(a[2]^b[2]) +
		bits.OnesCount64(a[3]^b[3])
}

// Keypoint is a detected, described image feature. X and Y are level-0
// pixel coordinates; Level is the pyramid level it was found on.
type Keypoint struct {
	X, Y  float64 // level-0 coordinates
	Level int
	Angle float64 // orientation, radians
	Score float64 // FAST corner score
	Desc  Descriptor
	Right float64 // stereo: matched right-image x at level 0; <0 if none
	Depth float64 // stereo: triangulated depth in metres; 0 if unknown
}

// Pt returns the level-0 pixel position as a Vec2.
func (k Keypoint) Pt() geom.Vec2 { return geom.Vec2{X: k.X, Y: k.Y} }

// Parallelizer runs n independent work items, possibly concurrently.
// The sequential implementation (SerialRunner) models the paper's CPU
// path; internal/trackpool serves it from a shared worker pool and
// internal/gpu models the paper's accelerator.
type Parallelizer interface {
	Run(n int, f func(i int))
}

// SerialRunner executes work items one by one on the calling
// goroutine.
type SerialRunner struct{}

// Run implements Parallelizer.
func (SerialRunner) Run(n int, f func(i int)) {
	for i := 0; i < n; i++ {
		f(i)
	}
}

// ModeledParallelizer is a Parallelizer that also accounts device
// time: Counters returns cumulative (wall, modeled) kernel durations.
// Only the simulated GPU implements it, and only internal/exp's
// Fig. 5/8 and the lane ablation attach one: their stage timers
// subtract the wall time the kernels took on the host and add the
// modeled device time, so reported latencies reflect the configured
// accelerator rather than the host's core count (see internal/gpu).
// Every other backend reports wall time.
type ModeledParallelizer interface {
	Parallelizer
	Counters() (wall, modeled time.Duration)
}
