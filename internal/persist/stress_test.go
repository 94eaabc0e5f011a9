package persist

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"slamshare/internal/bow"
	"slamshare/internal/geom"
	"slamshare/internal/holo"
	"slamshare/internal/smap"
)

// TestStressConcurrentMutationWithWAL hammers a journaled map from
// eight goroutines mixing inserts, observation wiring, erases, pose
// writes, snapshot views, and BoW queries — the workload mix of N
// tracking sessions plus a mapper sharing one global map — beside two
// goroutines writing SetPoses batches over the same seed keyframes and
// points, as two sessions' local BAs do on a merged map, and one
// detaching seed bindings, as their outlier culls do. One more
// goroutine checkpoints in a loop, so every snapshot's cut and journal
// switch races the in-place observer appends, and recovery starts from
// the newest of those snapshots. Run it under -race. It asserts two
// things no schedule may violate:
//
//  1. Snapshot views never expose a torn pose. Writers only ever store
//     translations with equal components (k,k,k), so any view keyframe
//     whose components differ leaked a half-written SE3.
//  2. Recovery — the newest checkpoint plus the journal after it —
//     rebuilds the live map: entities, poses and positions bit for
//     bit, bindings, observers. A snapshot that is not one cut (a
//     keyframe read before a detach, its point after) comes back with
//     the binding set, and the journal's detach cannot clear it.
func TestStressConcurrentMutationWithWAL(t *testing.T) {
	const (
		workers  = 8
		opsPer   = 300
		seedKFs  = 16
		ptsPerKF = 12
		kpsPerKF = 48
	)
	opts := testOptions(t)
	voc := bow.Default()
	m := smap.NewMap(voc)
	mgr, err := Open(opts, m, holo.NewRegistry(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Seed keyframes every worker reads and rewrites; their IDs are the
	// shared contention surface.
	seedRng := rand.New(rand.NewSource(42))
	seedAlloc := smap.NewIDAllocator(1)
	var seedIDs, seedPts []smap.ID
	for k := 0; k < seedKFs; k++ {
		kf := randomKeyFrame(seedRng, seedAlloc, 1, kpsPerKF, float64(k)/30)
		kf.Tcw = geom.IdentitySE3()
		m.AddKeyFrame(kf)
		seedIDs = append(seedIDs, kf.ID)
		for p := 0; p < ptsPerKF; p++ {
			mp := randomMapPoint(seedRng, seedAlloc, 1, kf.ID)
			m.AddMapPoint(mp)
			m.AddObservation(kf.ID, mp.ID, (p*3)%kpsPerKF)
			seedPts = append(seedPts, mp.ID)
		}
	}

	var torn atomic.Bool
	var wg sync.WaitGroup
	// Two bundle adjustments over overlapping windows: each batch is a
	// run of consecutive seed keyframes and points, by ascending ID.
	for b := 0; b < 2; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + b)))
			for i := 0; i < opsPer; i++ {
				k := float64(i) + float64(b)/4
				pose := geom.SE3{R: geom.IdentityQuat(), T: geom.Vec3{X: k, Y: k, Z: k}}
				lo := rng.Intn(len(seedIDs) - 4)
				var kfs []smap.KeyFramePose
				for _, id := range seedIDs[lo : lo+4] {
					kfs = append(kfs, smap.KeyFramePose{ID: id, Tcw: pose})
				}
				var mps []smap.PointPos
				for _, id := range seedPts[lo*ptsPerKF : (lo+4)*ptsPerKF] {
					mps = append(mps, smap.PointPos{ID: id, Pos: geom.Vec3{X: k, Y: -k, Z: float64(b)}})
				}
				m.SetPoses(kfs, mps)
			}
		}(b)
	}
	// The outlier culls of those adjustments.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(300))
		for i := 0; i < opsPer; i++ {
			id := seedIDs[rng.Intn(len(seedIDs))]
			_, bound, _ := m.KeyFrameState(id)
			if idx := rng.Intn(len(bound)); bound[idx] != 0 {
				m.DetachObservation(id, bound[idx], idx)
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			// Per-worker client IDs keep allocations disjoint without
			// coordination, like real sessions.
			alloc := smap.NewIDAllocator(2 + w)
			var myPoints []smap.ID
			lastKF := seedIDs[w%len(seedIDs)]
			for i := 0; i < opsPer; i++ {
				switch i % 6 {
				case 0: // insert a keyframe and bind fresh points
					kf := randomKeyFrame(rng, alloc, 2+w, kpsPerKF, float64(i)/30)
					m.AddKeyFrame(kf)
					lastKF = kf.ID
					for p := 0; p < 4; p++ {
						mp := randomMapPoint(rng, alloc, 2+w, kf.ID)
						m.AddMapPoint(mp)
						m.AddObservation(kf.ID, mp.ID, rng.Intn(kpsPerKF))
						myPoints = append(myPoints, mp.ID)
					}
				case 1: // cross-wire an observation onto a shared seed KF
					if len(myPoints) > 0 {
						_ = m.AddObservation(seedIDs[rng.Intn(len(seedIDs))],
							myPoints[rng.Intn(len(myPoints))], rng.Intn(kpsPerKF))
					}
				case 2: // cull one of our own points
					if len(myPoints) > 4 {
						j := rng.Intn(len(myPoints))
						m.EraseMapPoint(myPoints[j])
						myPoints = append(myPoints[:j], myPoints[j+1:]...)
					}
				case 3: // pose write with the equal-component pattern
					k := float64(i%97) + float64(w)/8
					m.SetPoses([]smap.KeyFramePose{{ID: seedIDs[rng.Intn(len(seedIDs))], Tcw: geom.SE3{
						R: geom.IdentityQuat(), T: geom.Vec3{X: k, Y: k, Z: k},
					}}}, nil)
				case 4: // snapshot view over a shared window; check tearing
					v := m.LocalView(seedIDs[rng.Intn(len(seedIDs))], 8)
					for _, kf := range v.KFs {
						if kf.Tcw.T.X != kf.Tcw.T.Y || kf.Tcw.T.Y != kf.Tcw.T.Z {
							torn.Store(true)
							return
						}
					}
				case 5: // place-recognition query against the shared index
					if kf, ok := m.KeyFrame(lastKF); ok {
						_ = m.QueryBow(kf.Bow, 3, func(id smap.ID) bool { return id == kf.ID })
					}
				}
				if i%30 == 0 {
					m.UpdateConnections(lastKF, 5)
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	rotDone := make(chan error, 1)
	checkpoints := 0
	go func() {
		var err error
		for err == nil {
			select {
			case <-stop:
				rotDone <- nil
				return
			default:
			}
			err = mgr.CheckpointNow()
			checkpoints++
		}
		rotDone <- err
	}()
	wg.Wait()
	close(stop)
	if err := <-rotDone; err != nil {
		t.Fatalf("checkpoint during mutation: %v", err)
	}
	t.Logf("%d checkpoints raced the workers", checkpoints)
	if torn.Load() {
		t.Fatal("a snapshot view observed a torn pose")
	}

	// Close flushes the journal; replay must land on exactly the entity
	// counts the live map settled at.
	wantKF, wantMP := m.NKeyFrames(), m.NMapPoints()
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(opts.Dir, voc)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Map.NKeyFrames() != wantKF || rec.Map.NMapPoints() != wantMP {
		t.Fatalf("replay rebuilt %d kf / %d mp, live map had %d kf / %d mp",
			rec.Map.NKeyFrames(), rec.Map.NMapPoints(), wantKF, wantMP)
	}
	assertMapsEqual(t, m, rec.Map)
}
