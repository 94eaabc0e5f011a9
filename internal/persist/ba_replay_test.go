package persist

import (
	"testing"

	"slamshare/internal/bow"
	"slamshare/internal/camera"
	"slamshare/internal/dataset"
	"slamshare/internal/feature"
	"slamshare/internal/geom"
	"slamshare/internal/holo"
	"slamshare/internal/mapping"
	"slamshare/internal/smap"
	"slamshare/internal/tracking"
)

// TestLocalBAReplaysExactly: a tracker and a local mapper run on a
// journaled map — local BA writing its window back through SetPoses,
// its outlier culls detaching the wrong associations misbind plants,
// the tracker's and the mapper's
// culls erasing — and replaying the WAL rebuilds the live map with
// every pose and position bit for bit and every binding as it was.
// While local BA's write-back and detaches went unjournaled, replayed
// poses sat centimetres off and detached bindings came back.
func TestLocalBAReplaysExactly(t *testing.T) {
	const frames = 100
	opts := testOptions(t)
	voc := bow.Default()
	m := smap.NewMap(voc)
	mgr, err := Open(opts, m, holo.NewRegistry(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq := dataset.MH04(camera.Stereo)
	alloc := smap.NewIDAllocator(1)
	tr := tracking.New(m, seq.Rig, feature.NewExtractor(feature.DefaultConfig()), alloc, 1, tracking.DefaultConfig())
	mm := mapping.New(m, seq.Rig, alloc, 1, mapping.DefaultConfig())
	for i := 0; i < frames; i++ {
		left, right := seq.StereoFrame(i)
		var prior *geom.SE3
		if i < 30 {
			p := seq.GroundTruth(i).Inverse()
			prior = &p
		}
		if res := tr.ProcessFrame(left, right, seq.FrameTime(i), prior); res.NewKF != nil {
			misbind(m, res.NewKF, 8)
			mm.ProcessKeyFrame(res.NewKF)
		}
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	ops := make(map[byte]int)
	for _, base := range mustJournals(t, opts.Dir) {
		forEachRecord(journalPath(opts.Dir, base), func(_ int64, _ uint64, op byte, _ []byte) { ops[op]++ })
	}
	if ops[opPoses] == 0 || ops[opDetach] == 0 {
		t.Fatalf("journal holds %d pose batches and %d detaches: local BA never ran or never culled", ops[opPoses], ops[opDetach])
	}
	t.Logf("%d keyframes, %d map points; %d pose batches, %d detaches journaled",
		m.NKeyFrames(), m.NMapPoints(), ops[opPoses], ops[opDetach])
	rec, err := Recover(opts.Dir, voc)
	if err != nil {
		t.Fatal(err)
	}
	assertMapsEqual(t, m, rec.Map)
}

// misbind moves up to n of kf's bindings onto unbound keypoints far
// from the ones that saw the points — the wrong associations local
// BA's outlier cull exists to detach.
func misbind(m *smap.Map, kf *smap.KeyFrame, n int) {
	_, bound, _ := m.KeyFrameState(kf.ID)
	for a, mpID := range bound {
		if n == 0 {
			return
		}
		if mpID == 0 {
			continue
		}
		for b, other := range bound {
			if other == 0 && kf.Keypoints[a].Pt().Sub(kf.Keypoints[b].Pt()).Norm() > 80 {
				if m.AddObservation(kf.ID, mpID, b) == nil {
					bound[a], bound[b] = 0, mpID
					n--
				}
				break
			}
		}
	}
}
