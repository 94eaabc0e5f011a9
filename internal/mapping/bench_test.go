package mapping

import (
	"testing"

	"slamshare/internal/bow"
	"slamshare/internal/camera"
	"slamshare/internal/dataset"
	"slamshare/internal/feature"
	"slamshare/internal/geom"
	"slamshare/internal/smap"
	"slamshare/internal/tracking"
)

// benchWindow tracks and maps the first n frames of V202 (stereo) and
// returns the mapper with the last keyframe inserted but not yet
// integrated: the state ProcessKeyFrame meets a keyframe in.
func benchWindow(b *testing.B, n int) (*Mapper, *smap.KeyFrame) {
	b.Helper()
	seq := dataset.V202(camera.Stereo)
	m := smap.NewMap(bow.Default())
	alloc := smap.NewIDAllocator(1)
	tr := tracking.New(m, seq.Rig, feature.NewExtractor(feature.DefaultConfig()), alloc, 1, tracking.DefaultConfig())
	mp := New(m, seq.Rig, alloc, 1, DefaultConfig())
	var last *smap.KeyFrame
	for i := 0; i < n; i++ {
		left, right := seq.StereoFrame(i)
		var prior *geom.SE3
		if i < 60 {
			p := seq.GroundTruth(i).Inverse()
			prior = &p
		}
		if res := tr.ProcessFrame(left, right, seq.FrameTime(i), prior); res.NewKF != nil {
			if last != nil {
				mp.ProcessKeyFrame(last)
			}
			last = res.NewKF
		}
	}
	if last == nil {
		b.Fatal("no keyframe")
	}
	return mp, last
}

// BenchmarkFuse times fusion of a fresh keyframe into its window. Each
// run detaches what the previous one bound, outside the timer.
func BenchmarkFuse(b *testing.B) {
	mm, kf := benchWindow(b, 100)
	_, before, _ := mm.Map.KeyFrameState(kf.ID)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if mm.fuse(kf) == 0 {
			b.Fatal("nothing fused")
		}
		b.StopTimer()
		_, after, _ := mm.Map.KeyFrameState(kf.ID)
		for idx, id := range after {
			if before[idx] == 0 && id != 0 {
				mm.Map.DetachObservation(kf.ID, id, idx)
			}
		}
		b.StartTimer()
	}
}

// discardPoses drops the writes of a bundle adjustment, so every run
// solves the same problem, and counts the keyframes it was handed.
type discardPoses struct{ kfs int }

func (d *discardPoses) SetPoses(kfs []smap.KeyFramePose, _ []smap.PointPos) { d.kfs += len(kfs) }

// BenchmarkLocalBA times local mapping's bundle adjustment, assembly
// and solve, over a keyframe's window.
func BenchmarkLocalBA(b *testing.B) {
	mm, kf := benchWindow(b, 100)
	window := windowIDs(mm.Map, kf.ID, mm.Cfg.BAWindow-1)
	bf := mm.Rig.Intr.Fx * mm.Rig.Baseline
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var d discardPoses
		if BundleAdjust(mm.Map, &d, mm.Rig.Intr, bf, window, nil, 8, 10, mm.Cfg.BAIters, nil); d.kfs == 0 {
			b.Fatal("nothing adjusted")
		}
	}
}
