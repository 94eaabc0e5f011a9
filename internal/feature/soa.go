package feature

import "time"

// SoA is a struct-of-arrays view of the keypoint hot data (position,
// pyramid level, orientation, descriptor). The extraction and matching
// inner loops iterate these parallel arrays instead of []Keypoint so a
// scan touches only the fields it needs: a Keypoint is ~112 bytes, but
// a radius test reads 16 (X, Y) and a descriptor compare 32 (Desc),
// so the AoS layout wastes most of every cache line and makes
// adjacent-index writes from parallel workers share lines.
type SoA struct {
	X, Y  []float64
	Level []int32
	Angle []float64
	Desc  []Descriptor
}

// Resize sets the length of every array to n, reusing backing storage
// when capacity allows. Contents are unspecified after a grow.
func (s *SoA) Resize(n int) {
	if cap(s.X) < n {
		s.X = make([]float64, n)
		s.Y = make([]float64, n)
		s.Level = make([]int32, n)
		s.Angle = make([]float64, n)
		s.Desc = make([]Descriptor, n)
	}
	s.X = s.X[:n]
	s.Y = s.Y[:n]
	s.Level = s.Level[:n]
	s.Angle = s.Angle[:n]
	s.Desc = s.Desc[:n]
}

// Gather fills the arrays from an AoS keypoint slice.
func (s *SoA) Gather(kps []Keypoint) {
	s.Resize(len(kps))
	for i := range kps {
		s.X[i] = kps[i].X
		s.Y[i] = kps[i].Y
		s.Level[i] = int32(kps[i].Level)
		s.Angle[i] = kps[i].Angle
		s.Desc[i] = kps[i].Desc
	}
}

// FrameScheduler is implemented by parallelizers that schedule work in
// frame-sized units (the trackpool stream): BeginFrame tags every
// subsequent Run call with the frame's arrival time, so the pool can
// serve the oldest frame's batches first. BeginFrame may block for
// admission — the scheduler bounds frames in flight so admitted frames
// run to completion — and EndFrame, called when the frame's processing
// finishes, releases the admission slot.
type FrameScheduler interface {
	BeginFrame(arrival time.Time)
	EndFrame()
}

// QueueWaiter reports the cumulative time a stream's batches spent
// queued before a worker first touched them — the scheduling cost the
// batched tracking service adds to a frame, reported as the
// track.queue stage.
type QueueWaiter interface {
	QueueWait() time.Duration
}
