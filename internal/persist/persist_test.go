package persist

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"
	"time"

	"slamshare/internal/bow"
	"slamshare/internal/codec"
	"slamshare/internal/feature"
	"slamshare/internal/geom"
	"slamshare/internal/holo"
	"slamshare/internal/smap"
)

func testOptions(t *testing.T) Options {
	t.Helper()
	return Options{
		Dir:             t.TempDir(),
		CheckpointEvery: -1, // no ticker; tests checkpoint explicitly
	}
}

func randomKeyFrame(rng *rand.Rand, alloc *smap.IDAllocator, client, nkp int, stamp float64) *smap.KeyFrame {
	kps := make([]feature.Keypoint, nkp)
	for i := range kps {
		var d feature.Descriptor
		for w := range d {
			d[w] = rng.Uint64()
		}
		l := rng.Intn(4)
		s, _ := feature.LevelScale(l)
		kps[i] = feature.Keypoint{
			X: feature.FromGrid(rng.Intn(400), s), Y: feature.FromGrid(rng.Intn(230), s),
			Level: l, Angle: rng.Float64(),
			Score: float64(rng.Intn(100)), Right: -1, Desc: d,
		}
	}
	return &smap.KeyFrame{
		ID: alloc.Next(), Client: client, Stamp: stamp,
		Tcw: geom.SE3{
			R: geom.QuatFromAxisAngle(geom.Vec3{X: 1, Y: 2, Z: 3}, rng.Float64()),
			T: geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()},
		},
		Keypoints: kps,
	}
}

func randomMapPoint(rng *rand.Rand, alloc *smap.IDAllocator, client int, ref smap.ID) *smap.MapPoint {
	var d feature.Descriptor
	for w := range d {
		d[w] = rng.Uint64()
	}
	return &smap.MapPoint{
		ID: alloc.Next(), Client: client,
		Pos:    geom.Vec3{X: rng.NormFloat64() * 5, Y: rng.NormFloat64() * 5, Z: rng.NormFloat64() * 5},
		Desc:   d,
		Normal: geom.Vec3{Z: 1},
		RefKF:  ref,
	}
}

// populate drives nkf keyframes with bound points into a journaled map.
func populate(rng *rand.Rand, m *smap.Map, alloc *smap.IDAllocator, client, nkf, nkp, pointsPer int) {
	for k := 0; k < nkf; k++ {
		kf := randomKeyFrame(rng, alloc, client, nkp, float64(k)/30)
		m.AddKeyFrame(kf)
		for p := 0; p < pointsPer; p++ {
			mp := randomMapPoint(rng, alloc, client, kf.ID)
			m.AddMapPoint(mp)
			m.AddObservation(kf.ID, mp.ID, (p*3)%nkp)
		}
	}
}

// assertMapsEqual compares entity sets, poses, keypoints, bindings,
// positions and observations, every float by its bits.
func assertMapsEqual(t *testing.T, want, got *smap.Map) {
	t.Helper()
	if got.NKeyFrames() != want.NKeyFrames() || got.NMapPoints() != want.NMapPoints() {
		t.Fatalf("size mismatch: got %d kf / %d mp, want %d kf / %d mp",
			got.NKeyFrames(), got.NMapPoints(), want.NKeyFrames(), want.NMapPoints())
	}
	for _, kf := range want.KeyFrames() {
		g, ok := got.KeyFrame(kf.ID)
		if !ok {
			t.Fatalf("keyframe %d missing", kf.ID)
		}
		if poseBits(g.Tcw) != poseBits(kf.Tcw) {
			t.Fatalf("keyframe %d pose %+v, want %+v", kf.ID, g.Tcw, kf.Tcw)
		}
		if !sameKeypoints(g.Keypoints, kf.Keypoints) {
			t.Fatalf("keyframe %d keypoints differ", kf.ID)
		}
		if !slices.Equal(g.MapPoints, kf.MapPoints) {
			t.Fatalf("keyframe %d bindings %v, want %v", kf.ID, g.MapPoints, kf.MapPoints)
		}
	}
	for _, mp := range want.MapPoints() {
		g, ok := got.MapPoint(mp.ID)
		if !ok {
			t.Fatalf("map point %d missing", mp.ID)
		}
		if vecBits(g.Pos) != vecBits(mp.Pos) {
			t.Fatalf("map point %d position %+v, want %+v", mp.ID, g.Pos, mp.Pos)
		}
		if !slices.Equal(g.Obs, mp.Obs) {
			t.Fatalf("map point %d observers %v, want %v", mp.ID, g.Obs, mp.Obs)
		}
	}
}

// poseBits and vecBits spell a pose and a position as their float64
// bits, so == compares them bit for bit (== on floats takes -0 for +0).
func poseBits(p geom.SE3) [7]uint64 {
	return [7]uint64{math.Float64bits(p.R.W), math.Float64bits(p.R.X), math.Float64bits(p.R.Y), math.Float64bits(p.R.Z),
		math.Float64bits(p.T.X), math.Float64bits(p.T.Y), math.Float64bits(p.T.Z)}
}

func vecBits(v geom.Vec3) [3]uint64 {
	return [3]uint64{math.Float64bits(v.X), math.Float64bits(v.Y), math.Float64bits(v.Z)}
}

// sameKeypoints compares two keypoint lists field by field, floats by
// their bits.
func sameKeypoints(a, b []feature.Keypoint) bool {
	return slices.EqualFunc(a, b, func(x, y feature.Keypoint) bool {
		bits := func(k feature.Keypoint) [6]uint64 {
			return [6]uint64{math.Float64bits(k.X), math.Float64bits(k.Y), math.Float64bits(k.Angle),
				math.Float64bits(k.Score), math.Float64bits(k.Right), math.Float64bits(k.Depth)}
		}
		return x.Level == y.Level && x.Desc == y.Desc && bits(x) == bits(y)
	})
}

func TestJournalReplayRebuildsMap(t *testing.T) {
	opts := testOptions(t)
	rng := rand.New(rand.NewSource(1))
	m := smap.NewMap(bow.Default())
	mgr, err := Open(opts, m, holo.NewRegistry(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	alloc := smap.NewIDAllocator(1)
	populate(rng, m, alloc, 1, 6, 40, 8)
	// Mix in erases and a fuse so replay covers every op.
	pts := m.MapPoints()
	m.EraseMapPoint(pts[0].ID)
	m.FusePoint(pts[1].ID, pts[2].ID)
	kfs := m.KeyFrames()
	m.EraseKeyFrame(kfs[len(kfs)-1].ID)
	if err := mgr.Flush(); err != nil {
		t.Fatal(err)
	}
	// Abandon without Close: crash semantics.
	rec, err := Recover(opts.Dir, bow.Default())
	if err != nil {
		t.Fatal(err)
	}
	if rec.CheckpointLoaded {
		t.Error("no checkpoint was written, yet one loaded")
	}
	if rec.ReplayedRecords == 0 {
		t.Fatal("nothing replayed")
	}
	if rec.LastSeq != mgr.Journal().Seq() {
		t.Errorf("LastSeq %d, journal wrote %d", rec.LastSeq, mgr.Journal().Seq())
	}
	assertMapsEqual(t, m, rec.Map)
	mgr.Close()
}

// TestReplayKeepsBindingPastStaleDetach: a journal may hold a detach
// whose keypoint the point no longer records — the point was rebound
// at another keypoint of the same keyframe — since journals written
// before detaches matched the keypoint index carry such records.
// Replaying it changes nothing, so the recovered map keeps the
// rebinding on both sides.
func TestReplayKeepsBindingPastStaleDetach(t *testing.T) {
	opts := testOptions(t)
	rng := rand.New(rand.NewSource(3))
	m := smap.NewMap(bow.Default())
	mgr, err := Open(opts, m, holo.NewRegistry(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	alloc := smap.NewIDAllocator(1)
	kf := randomKeyFrame(rng, alloc, 1, 10, 0)
	m.AddKeyFrame(kf)
	mp := randomMapPoint(rng, alloc, 1, kf.ID)
	m.AddMapPoint(mp)
	for _, idx := range []int{0, 1} {
		if err := m.AddObservation(kf.ID, mp.ID, idx); err != nil {
			t.Fatal(err)
		}
	}
	mgr.Journal().ObservationDetached(kf.ID, mp.ID, 0)
	if err := mgr.Flush(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(opts.Dir, bow.Default())
	if err != nil {
		t.Fatal(err)
	}
	assertMapsEqual(t, m, rec.Map)
	if rep := rec.Map.CheckInvariants(); !rep.OK() {
		t.Fatalf("recovered map: %s", rep.Summary())
	}
	if !rec.Map.HasObservation(mp.ID, kf.ID) {
		t.Fatal("replayed stale detach dropped the observation")
	}
}

func TestCheckpointAndJournalTail(t *testing.T) {
	opts := testOptions(t)
	rng := rand.New(rand.NewSource(2))
	m := smap.NewMap(bow.Default())
	anchors := holo.NewRegistry()
	anchors.Place("turbine", geom.SE3{T: geom.Vec3{X: 1, Y: 2, Z: 3}}, 1, 0.5)
	anchors.Place("valve", geom.SE3{T: geom.Vec3{X: -2}}, 2, 1.25)
	mgr, err := Open(opts, m, anchors, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	alloc := smap.NewIDAllocator(1)
	populate(rng, m, alloc, 1, 4, 30, 6)
	if err := mgr.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint mutations live only in the journal tail.
	populate(rng, m, alloc, 1, 3, 30, 6)
	if err := mgr.Flush(); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(opts.Dir, bow.Default())
	if err != nil {
		t.Fatal(err)
	}
	if !rec.CheckpointLoaded {
		t.Fatal("checkpoint not loaded")
	}
	if rec.ReplayedRecords == 0 {
		t.Fatal("journal tail not replayed")
	}
	assertMapsEqual(t, m, rec.Map)

	// Anchor registry roundtrips through the checkpoint.
	if rec.Anchors.Len() != 2 {
		t.Fatalf("anchors: got %d, want 2", rec.Anchors.Len())
	}
	a, ok := rec.Anchors.Get(1)
	if !ok || a.Label != "turbine" || a.Pose.T.Dist(geom.Vec3{X: 1, Y: 2, Z: 3}) > 1e-12 {
		t.Fatalf("anchor 1 corrupted: %+v", a)
	}
	// New anchor IDs continue past the restored ones.
	if id := rec.Anchors.Place("new", geom.SE3{}, 1, 2.0); id != 3 {
		t.Errorf("next anchor id = %d, want 3", id)
	}
	mgr.Close()
}

func TestRecoverToleratesTornTail(t *testing.T) {
	opts := testOptions(t)
	rng := rand.New(rand.NewSource(3))
	m := smap.NewMap(bow.Default())
	mgr, err := Open(opts, m, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	alloc := smap.NewIDAllocator(1)
	populate(rng, m, alloc, 1, 5, 30, 6)
	if err := mgr.Flush(); err != nil {
		t.Fatal(err)
	}
	mgr.Close()

	// Simulate a crash mid-write: chop bytes off the journal tail.
	wals, err := listJournals(opts.Dir)
	if err != nil || len(wals) == 0 {
		t.Fatal("no journal written")
	}
	path := journalPath(opts.Dir, wals[len(wals)-1])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(opts.Dir, bow.Default())
	if err != nil {
		t.Fatal(err)
	}
	// Everything but the torn record survives.
	if rec.Map.NKeyFrames() < m.NKeyFrames()-1 {
		t.Errorf("lost more than the torn record: %d of %d keyframes", rec.Map.NKeyFrames(), m.NKeyFrames())
	}
	if rec.LastSeq >= mgr.Journal().Seq() && rec.Map.NMapPoints() == m.NMapPoints() {
		t.Log("tail cut landed between records; still a valid recovery")
	}
}

func TestRecoverFallsBackPastCorruptCheckpoint(t *testing.T) {
	opts := testOptions(t)
	rng := rand.New(rand.NewSource(4))
	m := smap.NewMap(bow.Default())
	mgr, err := Open(opts, m, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	alloc := smap.NewIDAllocator(1)
	populate(rng, m, alloc, 1, 3, 30, 5)
	if err := mgr.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	firstKFs := m.NKeyFrames()
	populate(rng, m, alloc, 1, 2, 30, 5)
	if err := mgr.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	mgr.Close()

	// Corrupt the newest checkpoint; recovery must fall back to the
	// older one (pruning keeps two).
	ckpts, err := listCheckpoints(opts.Dir)
	if err != nil || len(ckpts) != 2 {
		t.Fatalf("want 2 checkpoints, have %v (err %v)", ckpts, err)
	}
	path := checkpointPath(opts.Dir, ckpts[1])
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	rec, err := Recover(opts.Dir, bow.Default())
	if err != nil {
		t.Fatal(err)
	}
	if !rec.CheckpointLoaded {
		t.Fatal("fallback checkpoint not loaded")
	}
	if rec.CheckpointSeq != ckpts[0] {
		t.Errorf("loaded checkpoint %d, want fallback %d", rec.CheckpointSeq, ckpts[0])
	}
	if rec.Map.NKeyFrames() < firstKFs {
		t.Errorf("fallback lost data: %d keyframes, want >= %d", rec.Map.NKeyFrames(), firstKFs)
	}
}

func TestRecoverRejectsStaleVersion(t *testing.T) {
	opts := testOptions(t)
	m := smap.NewMap(bow.Default())
	mgr, err := Open(opts, m, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	alloc := smap.NewIDAllocator(1)
	populate(rand.New(rand.NewSource(5)), m, alloc, 1, 2, 20, 4)
	if err := mgr.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	mgr.Close()

	ckpts, _ := listCheckpoints(opts.Dir)
	path := checkpointPath(opts.Dir, ckpts[len(ckpts)-1])
	if _, _, _, err := readCheckpoint(path, bow.Default()); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
	data, _ := os.ReadFile(path)
	data[4] = ckptVersion + 1 // version byte after magic; CRC now stale too
	os.WriteFile(path, data, 0o644)
	if _, _, _, err := readCheckpoint(path, bow.Default()); err == nil {
		t.Fatal("future-version checkpoint accepted")
	}

	// Recover treats it as corrupt and starts empty (no fallback left).
	for _, base := range mustJournals(t, opts.Dir) {
		os.Remove(journalPath(opts.Dir, base))
	}
	rec, err := Recover(opts.Dir, bow.Default())
	if err != nil {
		t.Fatal(err)
	}
	if rec.CheckpointLoaded || rec.Map.NKeyFrames() != 0 {
		t.Error("stale checkpoint should be skipped")
	}
}

func mustJournals(t *testing.T, dir string) []uint64 {
	t.Helper()
	wals, err := listJournals(dir)
	if err != nil {
		t.Fatal(err)
	}
	return wals
}

func TestRecoverEmptyDir(t *testing.T) {
	rec, err := Recover(t.TempDir(), bow.Default())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Map.NKeyFrames() != 0 || rec.CheckpointLoaded || rec.LastSeq != 0 {
		t.Error("empty dir should recover to an empty session")
	}
	if rec.Anchors == nil || rec.Anchors.Len() != 0 {
		t.Error("empty dir should yield an empty registry")
	}
}

func TestCheckpointPrunesOldFiles(t *testing.T) {
	opts := testOptions(t)
	rng := rand.New(rand.NewSource(6))
	m := smap.NewMap(bow.Default())
	mgr, err := Open(opts, m, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	alloc := smap.NewIDAllocator(1)
	for i := 0; i < 4; i++ {
		populate(rng, m, alloc, 1, 1, 20, 4)
		if err := mgr.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
	}
	mgr.Close()
	ckpts, _ := listCheckpoints(opts.Dir)
	if len(ckpts) != 2 {
		t.Errorf("pruning kept %d checkpoints, want 2", len(ckpts))
	}
	wals, _ := listJournals(opts.Dir)
	if len(wals) != 1 {
		t.Errorf("pruning kept %d journals, want 1", len(wals))
	}
	if mgr.Stats().Checkpoints.Load() != 4 {
		t.Errorf("checkpoint counter = %d", mgr.Stats().Checkpoints.Load())
	}
}

func TestBackgroundTickerCheckpoints(t *testing.T) {
	opts := testOptions(t)
	opts.CheckpointEvery = 20 * time.Millisecond
	m := smap.NewMap(bow.Default())
	mgr, err := Open(opts, m, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	populate(rand.New(rand.NewSource(7)), m, smap.NewIDAllocator(1), 1, 3, 20, 4)
	deadline := time.Now().Add(2 * time.Second)
	for mgr.Stats().Checkpoints.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	if mgr.Stats().Checkpoints.Load() == 0 {
		t.Fatal("ticker never checkpointed")
	}
	rec, err := Recover(opts.Dir, bow.Default())
	if err != nil {
		t.Fatal(err)
	}
	assertMapsEqual(t, m, rec.Map)
}

// TestSetPosesBytesRepeat: the same SetPoses batch journals the same
// record bytes every time, keyframes and then points each by ascending
// ID, and a batch out of ID order is refused before it writes.
func TestSetPosesBytesRepeat(t *testing.T) {
	opts := testOptions(t)
	m := smap.NewMap(bow.Default())
	mgr, err := Open(opts, m, holo.NewRegistry(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	populate(rng, m, smap.NewIDAllocator(1), 1, 40, 8, 1)
	var kfs []smap.KeyFramePose
	for _, kf := range m.KeyFrames() {
		kfs = append(kfs, smap.KeyFramePose{ID: kf.ID, Tcw: geom.SE3{R: geom.IdentityQuat(), T: geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}}})
	}
	var mps []smap.PointPos
	for _, mp := range m.MapPoints() {
		mps = append(mps, smap.PointPos{ID: mp.ID, Pos: geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}})
	}
	const repeats = 20
	for i := 0; i < repeats; i++ {
		m.SetPoses(kfs, mps)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetPoses took a batch out of ID order")
			}
		}()
		m.SetPoses([]smap.KeyFramePose{kfs[1], kfs[0]}, nil)
	}()
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	var bodies [][]byte
	for _, base := range mustJournals(t, opts.Dir) {
		forEachRecord(journalPath(opts.Dir, base), func(_ int64, _ uint64, op byte, body []byte) {
			if op == opPoses {
				bodies = append(bodies, append([]byte(nil), body...))
			}
		})
	}
	if len(bodies) != repeats {
		t.Fatalf("%d pose records journaled, want %d", len(bodies), repeats)
	}
	for i, b := range bodies[1:] {
		if !bytes.Equal(b, bodies[0]) {
			t.Fatalf("pose record %d differs from the first", i+1)
		}
	}
	r := codec.NewReader(bodies[0])
	for _, entry := range []int{poseEntryBytes, posEntryBytes} {
		var prev smap.ID
		for i, n := 0, int(r.U32()); i < n; i++ {
			id := r.U64()
			if i > 0 && id <= prev {
				t.Fatalf("IDs out of order: %d after %d", id, prev)
			}
			prev = id
			r.Raw(entry - 8)
		}
	}
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("record body malformed: err %v, %d bytes left", r.Err(), r.Len())
	}
}
