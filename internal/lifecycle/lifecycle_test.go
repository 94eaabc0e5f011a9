package lifecycle

import (
	"math/rand"
	"os"
	"testing"

	"slamshare/internal/bow"
	"slamshare/internal/feature"
	"slamshare/internal/geom"
	"slamshare/internal/persist"
	"slamshare/internal/smap"
)

// fakeJournal records the lifecycle boundary records a real WAL would.
type fakeJournal struct {
	evicted  map[uint64][]smap.ID
	reloaded []uint64
}

func newFakeJournal() *fakeJournal {
	return &fakeJournal{evicted: make(map[uint64][]smap.ID)}
}

func (j *fakeJournal) RegionEvicted(id uint64, kfIDs, mpIDs []smap.ID) {
	j.evicted[id] = append([]smap.ID(nil), kfIDs...)
}

func (j *fakeJournal) RegionReloaded(id uint64) {
	delete(j.evicted, id)
	j.reloaded = append(j.reloaded, id)
}

// clusterMap builds nClusters covisibility-connected neighbourhoods of
// kfPer keyframes each. Within a cluster every keyframe observes every
// one of ptsPer shared points (at matching keypoint indices), so each
// point has kfPer observers: with kfPer >= 4 and ptsPer > 30 every
// keyframe is redundant by mapping.Redundancy. Clusters share nothing,
// so the covisibility graph splits into nClusters components.
func clusterMap(t testing.TB, seed int64, nClusters, kfPer, ptsPer int) (*smap.Map, [][]smap.ID) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := smap.NewMap(bow.Default())
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
			m.UpdateConnections(id, 1)
		}
		clusters[c] = kfIDs
	}
	return m, clusters
}

func advance(m *smap.Map, n int) uint64 {
	var now uint64
	for i := 0; i < n; i++ {
		now = m.Tick()
	}
	return now
}

func checkClean(t *testing.T, m *smap.Map, when string) {
	t.Helper()
	if rep := m.CheckInvariants(); !rep.OK() {
		t.Fatalf("%s: %s", when, rep.Summary())
	}
}

func TestCullRedundantKeyFrames(t *testing.T) {
	m, _ := clusterMap(t, 1, 3, 6, 31)
	lm := New(Config{MaxKeyFrames: 10}, m, nil, "")
	now := advance(m, 50) // everything long untouched

	if !lm.Step(now) {
		t.Fatal("Step reported no mutation on an over-budget map")
	}
	if got := m.NKeyFrames(); got > 10 {
		t.Fatalf("NKeyFrames = %d after cull, want <= 10", got)
	}
	if got := lm.Stats().CulledKeyFrames.Load(); got != 8 {
		t.Fatalf("culled %d keyframes, want 8 (18 minus budget 10)", got)
	}
	checkClean(t, m, "after cull")

	// Idle map: the version gate must skip the pass entirely.
	steps := lm.Stats().Steps.Load()
	if lm.Step(advance(m, 1)) {
		t.Fatal("Step mutated an idle map")
	}
	if lm.Stats().Steps.Load() != steps {
		t.Fatal("version gate did not skip the idle step")
	}
}

func TestCullRespectsRecency(t *testing.T) {
	m, clusters := clusterMap(t, 2, 2, 6, 31)
	lm := New(Config{MaxKeyFrames: 1}, m, nil, "")
	now := advance(m, 50)

	m.TouchKeyFrames(clusters[0][1:2]) // hot: touched this tick

	lm.Step(now)
	if _, ok := m.KeyFrame(clusters[0][1]); !ok {
		t.Fatal("recently touched keyframe was culled")
	}
	checkClean(t, m, "after cull")
}

func TestSparsifyDeadPoints(t *testing.T) {
	m, clusters := clusterMap(t, 3, 1, 6, 12)
	alloc := smap.NewIDAllocatorFrom(1, 10_000)
	// Two extra singleton points: one never re-found (dead), one the
	// tracker bumped (alive).
	var dead, alive smap.ID
	for i := 0; i < 2; i++ {
		mp := &smap.MapPoint{
			ID: alloc.Next(), Client: 1, Pos: geom.Vec3{Z: 3},
			Normal: geom.Vec3{Z: 1}, RefKF: clusters[0][0],
		}
		m.AddMapPoint(mp)
		if i == 0 {
			dead = mp.ID
		} else {
			alive = mp.ID
			m.BumpPointFound(mp.ID)
		}
	}
	lm := New(Config{MaxKeyFrames: 1}, m, nil, "")
	now := advance(m, 40)

	lm.Step(now)
	if _, ok := m.MapPoint(dead); ok {
		t.Fatal("dead point survived sparsification")
	}
	if _, ok := m.MapPoint(alive); !ok {
		t.Fatal("re-found point was sparsified")
	}
	checkClean(t, m, "after sparsify")
}

func TestEvictReloadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m, clusters := clusterMap(t, 4, 2, 6, 30)
	jn := newFakeJournal()
	lm := New(Config{
		MaxKeyFrames: 1000, // under budget: eviction only
		EvictAfter:   20,
	}, m, jn, dir)
	advance(m, 40)
	m.TouchKeyFrames(clusters[1]) // cluster 1 hot, cluster 0 cold
	now := m.CurrentTick()

	coldKF, _ := m.KeyFrame(clusters[0][0])
	coldBow := coldKF.Bow
	nkf0, nmp0 := m.NKeyFrames(), m.NMapPoints()

	if !lm.Step(now) {
		t.Fatal("Step did not evict the cold cluster")
	}
	if got := m.NKeyFrames(); got != nkf0-6 {
		t.Fatalf("NKeyFrames = %d after evict, want %d", got, nkf0-6)
	}
	if got := m.NMapPoints(); got != nmp0-30 {
		t.Fatalf("NMapPoints = %d after evict, want %d (cluster-private points)", got, nmp0-30)
	}
	if lm.EvictedRegionCount() != 1 || lm.EvictedKeyFrameCount() != 6 {
		t.Fatalf("evicted index: %d regions / %d keyframes, want 1/6",
			lm.EvictedRegionCount(), lm.EvictedKeyFrameCount())
	}
	regions, _ := persist.ListRegions(dir)
	if len(regions) != 1 {
		t.Fatalf("region files on disk = %d, want 1", len(regions))
	}
	if len(jn.evicted) != 1 {
		t.Fatalf("journaled evictions = %d, want 1", len(jn.evicted))
	}
	for _, id := range clusters[1] {
		if _, ok := m.KeyFrame(id); !ok {
			t.Fatal("hot cluster was evicted")
		}
	}
	checkClean(t, m, "while evicted")

	// A query that looks like the evicted area pulls the region back.
	if n := lm.MaybeReload(coldBow); n != 1 {
		t.Fatalf("MaybeReload = %d regions, want 1", n)
	}
	if m.NKeyFrames() != nkf0 || m.NMapPoints() != nmp0 {
		t.Fatalf("after reload: %d KFs / %d MPs, want %d / %d",
			m.NKeyFrames(), m.NMapPoints(), nkf0, nmp0)
	}
	for _, id := range clusters[0] {
		kf, ok := m.KeyFrame(id)
		if !ok {
			t.Fatalf("keyframe %d missing after reload", id)
		}
		if kf.TrackedPoints() != 30 {
			t.Fatalf("keyframe %d tracks %d points after reload, want 30", id, kf.TrackedPoints())
		}
		if len(kf.Conns) == 0 {
			t.Fatalf("keyframe %d has no covisibility edges after reload", id)
		}
	}
	if lm.EvictedRegionCount() != 0 {
		t.Fatal("region still indexed after reload")
	}
	if regions, _ := persist.ListRegions(dir); len(regions) != 0 {
		t.Fatal("region file not removed after reload")
	}
	if len(jn.evicted) != 0 || len(jn.reloaded) != 1 {
		t.Fatal("journal did not net out the eviction")
	}
	checkClean(t, m, "after reload")

	// The evicted stretch stays queryable: relocalization against the
	// reloaded keyframes works.
	if res := m.QueryBow(coldBow, 3, nil); len(res) == 0 || res[0].ID != uint64(clusters[0][0]) {
		t.Fatal("reloaded keyframe not findable by BoW query")
	}
}

func TestRestoreEvictedAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	m, clusters := clusterMap(t, 5, 2, 6, 30)
	jn := newFakeJournal()
	lm := New(Config{MaxKeyFrames: 1000, EvictAfter: 20}, m, jn, dir)
	advance(m, 40)
	m.TouchKeyFrames(clusters[1])
	if !lm.Step(m.CurrentTick()) {
		t.Fatal("eviction did not run")
	}
	coldKF := clusters[0][0]
	var coldBow bow.Vec
	{
		// The keyframe is gone from memory; recover its BoW from the fake
		// journal's region record via the file itself on reload below.
		blob, err := persist.ReadRegion(dir, regionIDOf(t, jn))
		if err != nil {
			t.Fatal(err)
		}
		_ = blob
	}

	// A stale region file the WAL does not vouch for (crash between
	// file write and WAL record) must be deleted on restore.
	if err := persist.WriteRegion(dir, 99, []byte("garbage")); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh manager over the surviving map, seeded from
	// what recovery would hand it.
	lm2 := New(Config{MaxKeyFrames: 1000, EvictAfter: 20}, m, jn, dir)
	lm2.RestoreEvicted(jn.evicted)
	if lm2.EvictedRegionCount() != 1 {
		t.Fatalf("restored %d regions, want 1", lm2.EvictedRegionCount())
	}
	if regions, _ := persist.ListRegions(dir); len(regions) != 1 {
		t.Fatalf("stale region file survived restore: %v", regions)
	}

	// Reload through the restored index brings the keyframes back.
	n := lm2.ReloadAll()
	if n != 1 {
		t.Fatalf("ReloadAll = %d, want 1", n)
	}
	kf, ok := m.KeyFrame(coldKF)
	if !ok {
		t.Fatal("keyframe missing after restored reload")
	}
	coldBow = kf.Bow
	if res := m.QueryBow(coldBow, 3, nil); len(res) == 0 {
		t.Fatal("restored keyframe not indexed for place recognition")
	}
	checkClean(t, m, "after restored reload")
}

func regionIDOf(t *testing.T, jn *fakeJournal) uint64 {
	t.Helper()
	for id := range jn.evicted {
		return id
	}
	t.Fatal("no evicted region journaled")
	return 0
}

func TestReloadDropsCorruptRegion(t *testing.T) {
	dir := t.TempDir()
	m, clusters := clusterMap(t, 6, 2, 6, 30)
	lm := New(Config{MaxKeyFrames: 1000, EvictAfter: 20}, m, nil, dir)
	advance(m, 40)
	m.TouchKeyFrames(clusters[1])
	if !lm.Step(m.CurrentTick()) {
		t.Fatal("eviction did not run")
	}
	regions, _ := persist.ListRegions(dir)
	if len(regions) != 1 {
		t.Fatal("expected one region file")
	}
	// Corrupt the file: reload must abandon the region (re-map), not
	// panic or half-insert.
	path := persist.RegionPath(dir, regions[0])
	blob, _ := os.ReadFile(path)
	blob[len(blob)/2] ^= 0xFF
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	nkf := m.NKeyFrames()
	if n := lm.ReloadAll(); n != 0 {
		t.Fatalf("ReloadAll reloaded %d corrupt regions", n)
	}
	if m.NKeyFrames() != nkf {
		t.Fatal("corrupt reload mutated the map")
	}
	if lm.EvictedRegionCount() != 0 {
		t.Fatal("corrupt region still indexed")
	}
	if got := lm.Stats().DroppedRegions.Load(); got != 1 {
		t.Fatalf("DroppedRegions = %d, want 1", got)
	}
	if regions, _ := persist.ListRegions(dir); len(regions) != 0 {
		t.Fatal("corrupt region file not removed")
	}
	checkClean(t, m, "after dropped region")
}

// BenchmarkLifecycleCull measures one maintenance pass over an
// over-budget map: the redundancy scan plus a batch of erases.
func BenchmarkLifecycleCull(b *testing.B) {
	build := func() (*smap.Map, *Manager, uint64) {
		m, _ := clusterMap(b, 7, 10, 6, 31) // 60 keyframes
		lm := New(Config{MaxKeyFrames: 12}, m, nil, "")
		now := advance(m, 50)
		return m, lm, now
	}
	m, lm, now := build()
	dirty := func() {
		// Real servers mutate the map between maintenance passes; an
		// untouched pose write defeats the version gate so every
		// iteration pays for the full redundancy scan.
		kf := m.KeyFrames()[0]
		m.SetPoses([]smap.KeyFramePose{{ID: kf.ID, Tcw: kf.Tcw}}, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.NKeyFrames() <= 12 {
			b.StopTimer()
			m, lm, now = build()
			b.StartTimer()
		}
		dirty()
		lm.Step(now)
	}
}

// TestCullRuleBoundaries runs the culling rule's boundary cases through
// the budget pass: one cold subject keyframe tracks `tracked` points,
// `wide` of which four keyframes observe and the rest three; the other
// three keyframes are hot, so the subject is the only candidate and the
// pass culls it exactly when mapping.Redundancy says so.
func TestCullRuleBoundaries(t *testing.T) {
	for _, tc := range []struct {
		name          string
		tracked, wide int
		culled        bool
	}{
		{"30 tracked, all seen by 4", 30, 30, false},
		{"31 tracked, all seen by 4", 31, 31, true},
		{"92% seen by 4", 50, 46, false},
		{"94% seen by 4", 50, 47, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := smap.NewMap(bow.Default())
			alloc := smap.NewIDAllocator(1)
			kfs := make([]smap.ID, 4)
			for i := range kfs {
				kf := &smap.KeyFrame{
					ID: alloc.Next(), Client: 1, Stamp: float64(i),
					Tcw:       geom.SE3{R: geom.Quat{W: 1}},
					Keypoints: make([]feature.Keypoint, tc.tracked),
				}
				m.AddKeyFrame(kf)
				kfs[i] = kf.ID
			}
			for p := 0; p < tc.tracked; p++ {
				mp := &smap.MapPoint{ID: alloc.Next(), Client: 1, Pos: geom.Vec3{Z: 5}, RefKF: kfs[0]}
				m.AddMapPoint(mp)
				observers := kfs[:3]
				if p < tc.wide {
					observers = kfs
				}
				for _, id := range observers {
					if err := m.AddObservation(id, mp.ID, p); err != nil {
						t.Fatal(err)
					}
				}
			}
			lm := New(Config{MaxKeyFrames: 3}, m, nil, "")
			advance(m, 50)
			m.TouchKeyFrames(kfs[1:])
			lm.Step(m.CurrentTick())
			_, kept := m.KeyFrame(kfs[0])
			if got := lm.Stats().CulledKeyFrames.Load(); (got == 1) != tc.culled || kept == tc.culled {
				t.Fatalf("culled %d (subject kept: %v), want culled = %v", got, kept, tc.culled)
			}
			checkClean(t, m, "after cull")
		})
	}
}

// TestSparsifyRepeats builds the same map twice, with more dead points
// than one pass may erase, and requires both passes to erase the same
// points: the batch is cut by ID, not by the map's iteration order.
func TestSparsifyRepeats(t *testing.T) {
	survivors := func() map[smap.ID]bool {
		m, clusters := clusterMap(t, 8, 1, 6, 12)
		alloc := smap.NewIDAllocatorFrom(1, 10_000)
		for i := 0; i < 4*sparsifyBatch; i++ {
			m.AddMapPoint(&smap.MapPoint{
				ID: alloc.Next(), Client: 1, Pos: geom.Vec3{Z: 3},
				Normal: geom.Vec3{Z: 1}, RefKF: clusters[0][0],
			})
		}
		lm := New(Config{MaxKeyFrames: 1}, m, nil, "")
		lm.Step(advance(m, 40))
		if got := lm.Stats().SparsifiedPoints.Load(); got != sparsifyBatch {
			t.Fatalf("sparsified %d points, want one batch of %d", got, sparsifyBatch)
		}
		out := make(map[smap.ID]bool)
		for _, mp := range m.MapPoints() {
			out[mp.ID] = true
		}
		return out
	}
	a, b := survivors(), survivors()
	if len(a) != len(b) {
		t.Fatalf("%d vs %d points survive", len(a), len(b))
	}
	for id := range a {
		if !b[id] {
			t.Fatalf("point %d survives one pass and not the other", id)
		}
	}
}
