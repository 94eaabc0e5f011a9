package persist_test

// End-to-end crash recovery: two clients build a shared map, the
// server dies mid-session — after the merge hit the journal but before
// any checkpoint — and a fresh server recovers the map from the
// journal alone. The returning client resumes by BoW relocalization
// and its post-recovery accuracy matches an uninterrupted run.

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"slamshare/internal/bow"
	"slamshare/internal/camera"
	"slamshare/internal/client"
	"slamshare/internal/dataset"
	"slamshare/internal/feature"
	"slamshare/internal/geom"
	"slamshare/internal/holo"
	"slamshare/internal/lifecycle"
	"slamshare/internal/metrics"
	"slamshare/internal/persist"
	"slamshare/internal/server"
	"slamshare/internal/smap"
	"slamshare/internal/wire"
)

const (
	crashExtraFrames  = 40  // frames driven after both merges, pre-crash
	resumeFrames      = 120 // frames driven after the restart
	recoveryTolerance = 0.15
)

// twoClientRun drives clients A (MH04) and B (displaced MH05) through
// their sessions until both merged, then extra more frames. Returns
// the frame index the run stopped at.
func twoClientRun(t *testing.T, sessA, sessB *server.Session, devA, devB *client.Client, startFrame, extra int) int {
	t.Helper()
	i := startFrame
	remaining := -1
	for ; i < 1200; i += 2 {
		msgA := devA.BuildFrame(i)
		ra, err := sessA.HandleFrame(msgA)
		if err != nil {
			t.Fatal(err)
		}
		devA.ApplyPose(i, ra.Pose, ra.Tracked)
		msgB := devB.BuildFrame(i)
		rb, err := sessB.HandleFrame(msgB)
		if err != nil {
			t.Fatal(err)
		}
		devB.ApplyPose(i, rb.Pose, rb.Tracked)
		if remaining < 0 && sessA.Merged() && sessB.Merged() {
			remaining = extra
		}
		if remaining >= 0 {
			if remaining == 0 {
				break
			}
			remaining -= 2
		}
	}
	if remaining < 0 {
		t.Fatalf("sessions never both merged (stopped at frame %d)", i)
	}
	return i
}

func TestCrashRecoveryMatchesUninterruptedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute end-to-end run")
	}

	newDevices := func() (*client.Client, *client.Client) {
		seqA := dataset.MH04(camera.Stereo)
		seqB := dataset.MH05(camera.Stereo)
		return client.New(1, seqA), client.NewDisplaced(2, seqB, 0.07, geom.Vec3{X: 0.5, Y: -0.3})
	}

	// ---- Reference: the same session with no crash. ----
	refSrv, err := server.New(server.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	refA, refB := newDevices()
	refSessA, err := refSrv.OpenSession(1, refA.Seq.Rig)
	if err != nil {
		t.Fatal(err)
	}
	refSessB, err := refSrv.OpenSession(2, refB.Seq.Rig)
	if err != nil {
		t.Fatal(err)
	}
	refCrashFrame := twoClientRun(t, refSessA, refSessB, refA, refB, 0, crashExtraFrames)
	// Keep going through what will be the post-crash window below.
	for i := refCrashFrame + 2; i < refCrashFrame+resumeFrames; i += 2 {
		msg := refA.BuildFrame(i)
		r, err := refSessA.HandleFrame(msg)
		if err != nil {
			t.Fatal(err)
		}
		refA.ApplyPose(i, r.Pose, r.Tracked)
	}
	refSrv.Close()

	// ---- Crash run: journal on, no checkpoint ticker. ----
	dir := t.TempDir()
	cfg := server.DefaultConfig()
	cfg.Persist = persist.Options{Dir: dir, CheckpointEvery: -1}
	srv1, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	devA, devB := newDevices()
	sessA1, err := srv1.OpenSession(1, devA.Seq.Rig)
	if err != nil {
		t.Fatal(err)
	}
	sessB1, err := srv1.OpenSession(2, devB.Seq.Rig)
	if err != nil {
		t.Fatal(err)
	}
	crashFrame := twoClientRun(t, sessA1, sessB1, devA, devB, 0, crashExtraFrames)
	wantKFs, wantMPs := srv1.Global().NKeyFrames(), srv1.Global().NMapPoints()
	if wantKFs == 0 || wantMPs == 0 {
		t.Fatal("crash run built no map")
	}
	// Kill: flush the journal (the records were appended before the
	// crash) and abandon the server. Close writes no checkpoint, so the
	// on-disk state is exactly a mid-merge crash: journal only.
	live := captureMapState(srv1.Global())
	srv1.Close()

	// ---- Restart and recover. ----
	srv2, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	rec := srv2.Recovery()
	if rec == nil || rec.CheckpointLoaded {
		t.Fatalf("expected journal-only recovery, got %+v", rec)
	}
	if rec.ReplayedRecords == 0 {
		t.Fatal("no journal records replayed")
	}
	// The operator scrapes the same number.
	if got := srv2.Obs().Registry().Counter("persist.replayed_records").Load(); got != int64(rec.ReplayedRecords) {
		t.Errorf("registry persist.replayed_records = %d, want %d", got, rec.ReplayedRecords)
	}
	// The baseline system reloads a serialized map in ~8 s (Table 4);
	// journal replay must be well under that.
	if rec.ReplayTime > 4*time.Second {
		t.Errorf("replay took %v, want well under the baseline's ~8s", rec.ReplayTime)
	}
	gotKFs, gotMPs := srv2.Global().NKeyFrames(), srv2.Global().NMapPoints()
	if gotKFs != wantKFs || gotMPs != wantMPs {
		t.Fatalf("restored map: %d keyframes / %d points, want %d / %d",
			gotKFs, gotMPs, wantKFs, wantMPs)
	}

	// Replay equals live: the journal holds two merges (staged inserts,
	// fuses, seam corrections), and replaying it must rebuild the map
	// the live server had at the kill, not merely one of the same size.
	if rep := srv2.Global().CheckInvariants(); !rep.OK() {
		t.Errorf("recovered map violates invariants: %s", rep.Summary())
	}
	live.assertEqual(t, captureMapState(srv2.Global()))

	// ---- Returning client resumes by relocalization. ----
	sessA2, err := srv2.OpenSession(1, devA.Seq.Rig)
	if err != nil {
		t.Fatal(err)
	}
	if !sessA2.Merged() {
		t.Fatal("returning client was not resumed onto the recovered map")
	}
	devA.Reconnect() // restart the video stream with an intra frame
	tracked := 0
	frames := 0
	for i := crashFrame + 2; i < crashFrame+resumeFrames; i += 2 {
		msg := devA.BuildFrame(i)
		r, err := sessA2.HandleFrame(msg)
		if err != nil {
			t.Fatal(err)
		}
		devA.ApplyPose(i, r.Pose, r.Tracked)
		frames++
		if r.Tracked {
			tracked++
		}
	}
	if tracked == 0 {
		t.Fatal("client never relocalized against the recovered map")
	}
	if tracked < frames/2 {
		t.Errorf("only %d/%d frames tracked after recovery", tracked, frames)
	}

	// ---- Post-relocalization accuracy vs the uninterrupted run. ----
	truth := devA.Seq.TruthTrajectory(crashFrame+resumeFrames, 2)
	t0 := devA.Seq.FrameTime(crashFrame)
	t1 := devA.Seq.FrameTime(crashFrame + resumeFrames)
	refATE := metrics.ATEWindow(refA.Trajectory(), truth, t0, t1)
	recATE := metrics.ATEWindow(devA.Trajectory(), truth, t0, t1)
	delta := recATE - refATE
	if delta > recoveryTolerance {
		t.Errorf("post-recovery ATE %.3f m vs uninterrupted %.3f m (delta %.3f > %.2f)",
			recATE, refATE, delta, recoveryTolerance)
	}
	t.Logf("recovery: %d records in %v; ATE %.3f m (ref %.3f m, delta %+.3f m); %d/%d tracked",
		rec.ReplayedRecords, rec.ReplayTime, recATE, refATE, delta, tracked, frames)
}

// mapState is what the journal promises to rebuild: which entities
// exist, each keyframe's pose and its keypoint-to-map-point bindings,
// each map point's position.
type mapState struct {
	kfPose map[smap.ID]geom.SE3
	kfBind map[smap.ID][]smap.ID
	mps    map[smap.ID]geom.Vec3
}

func captureMapState(m *smap.Map) mapState {
	st := mapState{kfPose: map[smap.ID]geom.SE3{}, kfBind: map[smap.ID][]smap.ID{}, mps: map[smap.ID]geom.Vec3{}}
	for _, kf := range m.KeyFrames() {
		st.kfPose[kf.ID], st.kfBind[kf.ID], _ = m.KeyFrameState(kf.ID)
	}
	for _, mp := range m.MapPoints() {
		st.mps[mp.ID], _, _ = m.PointMatchState(mp.ID)
	}
	return st
}

// assertEqual compares the live map at the kill with its replay: the
// same entities, every keyframe pose and point position bit for bit,
// every binding as it was. Every map mutation is journaled, local BA's
// write-back and outlier detaches included, so nothing is allowed for.
func (live mapState) assertEqual(t *testing.T, rec mapState) {
	t.Helper()
	for id, want := range live.mps {
		if got, ok := rec.mps[id]; !ok {
			t.Errorf("map point %d lost in replay", id)
		} else if vecBits(got) != vecBits(want) {
			t.Errorf("map point %d: replayed position %+v, live %+v", id, got, want)
		}
	}
	for id := range rec.mps {
		if _, ok := live.mps[id]; !ok {
			t.Errorf("map point %d resurrected by replay", id)
		}
	}
	if len(rec.kfPose) != len(live.kfPose) {
		t.Errorf("replay rebuilt %d keyframes, live map had %d", len(rec.kfPose), len(live.kfPose))
	}
	for id, want := range live.kfPose {
		got, ok := rec.kfPose[id]
		if !ok {
			t.Errorf("keyframe %d lost in replay", id)
			continue
		}
		if poseBits(got) != poseBits(want) {
			t.Errorf("keyframe %d: replayed pose %+v, live %+v (%.3g m / %.3g rad off)",
				id, got, want, got.T.Dist(want.T), got.R.AngleTo(want.R))
		}
		if wb, gb := live.kfBind[id], rec.kfBind[id]; !slices.Equal(gb, wb) {
			t.Errorf("keyframe %d: replayed bindings differ from the live map's", id)
		}
	}
	t.Logf("replay vs live: %d keyframes, %d map points, bit for bit", len(live.kfPose), len(live.mps))
}

// poseBits and vecBits spell a pose and a position as their float64
// bits, so == compares them bit for bit.
func poseBits(p geom.SE3) [7]uint64 {
	return [7]uint64{math.Float64bits(p.R.W), math.Float64bits(p.R.X), math.Float64bits(p.R.Y), math.Float64bits(p.R.Z),
		math.Float64bits(p.T.X), math.Float64bits(p.T.Y), math.Float64bits(p.T.Z)}
}

func vecBits(v geom.Vec3) [3]uint64 {
	return [3]uint64{math.Float64bits(v.X), math.Float64bits(v.Y), math.Float64bits(v.Z)}
}

// ---- lifecycle records in the WAL ----

// populateClusters fills an already-journaled map with nClusters
// disjoint covisibility neighbourhoods (kfPer keyframes sharing ptsPer
// points each, all pair weights = ptsPer) plus two junk points no
// keyframe observes — sparsification fodder. Pair weights stay >= 15
// so the live covisibility graph matches Recover's minShared-15
// recompute edge for edge.
func populateClusters(t *testing.T, m *smap.Map, seed int64, nClusters, kfPer, ptsPer int) [][]smap.ID {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	alloc := smap.NewIDAllocator(1)
	clusters := make([][]smap.ID, nClusters)
	for c := 0; c < nClusters; c++ {
		kfIDs := make([]smap.ID, kfPer)
		for k := 0; k < kfPer; k++ {
			kps := make([]feature.Keypoint, ptsPer)
			for i := range kps {
				var d feature.Descriptor
				for w := range d {
					d[w] = rng.Uint64()
				}
				kps[i] = feature.Keypoint{
					X: float64(rng.Intn(700)), Y: float64(rng.Intn(400)),
					Right: -1, Desc: d,
				}
			}
			kf := &smap.KeyFrame{
				ID: alloc.Next(), Client: 1,
				Stamp:     float64(c*kfPer + k),
				Tcw:       geom.SE3{R: geom.Quat{W: 1}, T: geom.Vec3{X: float64(c) * 100}},
				Keypoints: kps,
			}
			m.AddKeyFrame(kf)
			kfIDs[k] = kf.ID
		}
		for p := 0; p < ptsPer; p++ {
			var d feature.Descriptor
			for w := range d {
				d[w] = rng.Uint64()
			}
			mp := &smap.MapPoint{
				ID: alloc.Next(), Client: 1,
				Pos:    geom.Vec3{X: float64(c)*100 + rng.NormFloat64(), Y: rng.NormFloat64(), Z: 5},
				Desc:   d,
				Normal: geom.Vec3{Z: 1},
				RefKF:  kfIDs[0],
			}
			m.AddMapPoint(mp)
			for _, kfID := range kfIDs {
				if err := m.AddObservation(kfID, mp.ID, p); err != nil {
					t.Fatalf("AddObservation: %v", err)
				}
			}
		}
		for _, id := range kfIDs {
			m.UpdateConnections(id, 15)
		}
		clusters[c] = kfIDs
	}
	for i := 0; i < 2; i++ {
		m.AddMapPoint(&smap.MapPoint{
			ID: alloc.Next(), Client: 1, Pos: geom.Vec3{Z: 3},
			Normal: geom.Vec3{Z: 1}, RefKF: clusters[0][0],
		})
	}
	return clusters
}

// TestRecoveryReplaysLifecycleRecords drives the full lifecycle record
// vocabulary — entity erases from culling and sparsification, region
// eviction, region reload — through a real WAL and asserts the
// replayed map is byte-for-byte the compacted map the server held at
// crash time, with the still-evicted region restored to the reload
// index and servable from its file.
func TestRecoveryReplaysLifecycleRecords(t *testing.T) {
	dir := t.TempDir()
	m := smap.NewMap(bow.Default())
	mgr, err := persist.Open(persist.Options{Dir: dir, CheckpointEvery: -1}, m, holo.NewRegistry(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	clusters := populateClusters(t, m, 11, 3, 6, 31)

	lcfg := lifecycle.Config{MaxKeyFrames: 12, EvictAfter: 20}
	lm := lifecycle.New(lcfg, m, mgr.Journal(), dir)
	var now uint64
	for i := 0; i < 40; i++ {
		now = m.Tick()
	}
	m.TouchKeyFrames(clusters[2]) // cluster 2 hot; 0 and 1 cold

	// A cluster-1 BoW vector, captured while the keyframe is resident:
	// the relocalization query that will pull the region back in.
	kf1, ok := m.KeyFrame(clusters[1][0])
	if !ok {
		t.Fatal("cluster 1 keyframe missing")
	}
	bow1 := kf1.Bow

	// Pass 1: over budget by 6 -> cull cluster 0, sparsify the junk
	// points, evict cold cluster 1 to a region file.
	if !lm.Step(now) {
		t.Fatal("first Step mutated nothing")
	}
	st := lm.Stats()
	if st.CulledKeyFrames.Load() == 0 || st.SparsifiedPoints.Load() == 0 || st.EvictedRegions.Load() != 1 {
		t.Fatalf("pass 1: culled=%d sparsified=%d evicted=%d, want >0 / >0 / 1",
			st.CulledKeyFrames.Load(), st.SparsifiedPoints.Load(), st.EvictedRegions.Load())
	}

	// Relocalize into the evicted area: region comes back, journaling a
	// reload record.
	if n := lm.MaybeReload(bow1); n != 1 {
		t.Fatalf("MaybeReload = %d regions, want 1", n)
	}

	// Pass 2: everything has gone cold again; the coldest cluster (the
	// reloaded one — lowest IDs on the tie) is evicted a second time,
	// so the crash happens with one region on disk.
	kf2, _ := m.KeyFrame(clusters[2][0])
	m.SetPoses([]smap.KeyFramePose{{ID: kf2.ID, Tcw: kf2.Tcw}}, nil) // defeat the idle-version gate
	for i := 0; i < 60; i++ {
		now = m.Tick()
	}
	if !lm.Step(now) {
		t.Fatal("second Step mutated nothing")
	}
	if lm.EvictedRegionCount() != 1 {
		t.Fatalf("evicted regions at crash = %d, want 1", lm.EvictedRegionCount())
	}

	if err := mgr.Flush(); err != nil {
		t.Fatal(err)
	}
	want := wire.EncodeMap(m)
	wantKFs, wantMPs := m.NKeyFrames(), m.NMapPoints()
	// Abandon mgr without Close: on-disk state is journal + region file.

	rec, err := persist.Recover(dir, bow.Default())
	if err != nil {
		t.Fatal(err)
	}
	if rec.ReplayedRecords == 0 {
		t.Fatal("no journal records replayed")
	}
	if got := wire.EncodeMap(rec.Map); !bytes.Equal(got, want) {
		t.Fatalf("replayed map differs from crash-time map: %d bytes vs %d (KFs %d/%d, MPs %d/%d)",
			len(got), len(want), rec.Map.NKeyFrames(), wantKFs, rec.Map.NMapPoints(), wantMPs)
	}
	if len(rec.EvictedRegions) != 1 {
		t.Fatalf("EvictedRegions = %v, want exactly the crash-time region", rec.EvictedRegions)
	}
	for id, kfIDs := range rec.EvictedRegions {
		if len(kfIDs) != len(clusters[1]) {
			t.Fatalf("region %d holds %d keyframes, want %d", id, len(kfIDs), len(clusters[1]))
		}
	}
	if regions, _ := persist.ListRegions(dir); len(regions) != 1 {
		t.Fatalf("region files on disk = %d, want 1", len(regions))
	}

	// A restarted lifecycle manager serves the pre-crash region.
	lm2 := lifecycle.New(lcfg, rec.Map, nil, dir)
	lm2.RestoreEvicted(rec.EvictedRegions)
	if n := lm2.ReloadAll(); n != 1 {
		t.Fatalf("ReloadAll after recovery = %d, want 1", n)
	}
	for _, id := range clusters[1] {
		if _, ok := rec.Map.KeyFrame(id); !ok {
			t.Fatalf("keyframe %d missing after post-recovery reload", id)
		}
	}
	if rep := rec.Map.CheckInvariants(); !rep.OK() {
		t.Fatalf("after post-recovery reload: %s", rep.Summary())
	}
	if res := rec.Map.QueryBow(bow1, 3, nil); len(res) == 0 {
		t.Fatal("reloaded keyframe not findable by BoW query after recovery")
	}
}

// TestRecoverySweepsUnvouchedRegionFile crashes between the region
// file write and its WAL record reaching disk: replay leaves the
// cluster live (its erases were lost with the record), so the orphan
// file is stale and RestoreEvicted must delete it rather than serve a
// second copy of live keyframes.
func TestRecoverySweepsUnvouchedRegionFile(t *testing.T) {
	dir := t.TempDir()
	m := smap.NewMap(bow.Default())
	mgr, err := persist.Open(persist.Options{Dir: dir, CheckpointEvery: -1}, m, holo.NewRegistry(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	clusters := populateClusters(t, m, 12, 2, 4, 20)
	lcfg := lifecycle.Config{MaxKeyFrames: 1000, EvictAfter: 20}
	lm := lifecycle.New(lcfg, m, mgr.Journal(), dir)
	var now uint64
	for i := 0; i < 40; i++ {
		now = m.Tick()
	}
	m.TouchKeyFrames(clusters[1])
	if err := mgr.Flush(); err != nil {
		t.Fatal(err)
	}
	wals, err := filepath.Glob(filepath.Join(dir, "journal-*.wal"))
	if err != nil || len(wals) != 1 {
		t.Fatalf("journal files = %v (err %v), want exactly one", wals, err)
	}
	fi, err := os.Stat(wals[0])
	if err != nil {
		t.Fatal(err)
	}
	preEvict := fi.Size()

	nkf := m.NKeyFrames()
	if !lm.Step(now) {
		t.Fatal("eviction did not run")
	}
	if err := mgr.Flush(); err != nil {
		t.Fatal(err)
	}
	if regions, _ := persist.ListRegions(dir); len(regions) != 1 {
		t.Fatalf("region files = %d, want 1", len(regions))
	}
	// The crash: every record from the eviction batch is lost, the
	// region file survives.
	if err := os.Truncate(wals[0], preEvict); err != nil {
		t.Fatal(err)
	}

	rec, err := persist.Recover(dir, bow.Default())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Map.NKeyFrames() != nkf {
		t.Fatalf("replayed map has %d keyframes, want %d (erases were lost with the WAL tail)",
			rec.Map.NKeyFrames(), nkf)
	}
	if len(rec.EvictedRegions) != 0 {
		t.Fatalf("EvictedRegions = %v, want none", rec.EvictedRegions)
	}

	lm2 := lifecycle.New(lcfg, rec.Map, nil, dir)
	lm2.RestoreEvicted(rec.EvictedRegions)
	if regions, _ := persist.ListRegions(dir); len(regions) != 0 {
		t.Fatalf("stale region file survived restore: %v", regions)
	}
	if lm2.EvictedRegionCount() != 0 {
		t.Fatal("unvouched region entered the reload index")
	}
	if n := lm2.ReloadAll(); n != 0 {
		t.Fatalf("ReloadAll = %d on an empty index", n)
	}
	if rep := rec.Map.CheckInvariants(); !rep.OK() {
		t.Fatalf("replayed map: %s", rep.Summary())
	}
}
