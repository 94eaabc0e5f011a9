// Multi-client contention benchmark for the shared global map: N
// simulated trackers run concurrent search-local-points read loops
// against one map while inserting keyframes/observations at the usual
// tracking:mapping ratio, with the persistence WAL attached (the
// configuration an edge server actually runs). Reports per-client
// ns/frame and runtime mutex blocked-time per frame; DESIGN.md §3
// requires the aggregate cost per frame to stay flat from 1 to 8
// clients.
package slamshare_test

import (
	rtm "runtime/metrics"
	"sync"
	"testing"

	"slamshare/internal/bow"
	"slamshare/internal/feature"
	"slamshare/internal/geom"
	"slamshare/internal/persist"
	"slamshare/internal/smap"
)

const (
	contFramesPerClient = 400
	contKFEvery         = 10 // keyframe insertion interval in frames
	contEraseEvery      = 40 // map point cull interval in frames
	contKpsPerKF        = 120
	contNewPtsPerKF     = 40
	contSeedKFs         = 12
	contLocalWindow     = 10
)

// contentionClient simulates one per-client SLAM process sharing the
// global map: a read-heavy tracking loop plus periodic keyframe and
// map-point insertion.
type contentionClient struct {
	id       int
	alloc    *smap.IDAllocator
	ref      smap.ID
	seed     uint64
	localPts []smap.ID
	probe    feature.Descriptor
}

func newContentionClient(id int) *contentionClient {
	c := &contentionClient{id: id, alloc: smap.NewIDAllocator(id), seed: uint64(id)*2654435761 + 12345}
	for w := 0; w < 4; w++ {
		c.probe[w] = c.next()
	}
	return c
}

func (c *contentionClient) next() uint64 {
	c.seed = c.seed*6364136223846793005 + 1442695040888963407
	return c.seed
}

// insertKeyFrame mimics makeKeyFrame + local mapping: a new keyframe,
// bindings to recent points (covisibility with preceding keyframes),
// fresh triangulated points, and a covisibility update.
func (c *contentionClient) insertKeyFrame(b *testing.B, m *smap.Map) {
	kps := make([]feature.Keypoint, contKpsPerKF)
	for i := range kps {
		var d feature.Descriptor
		for w := 0; w < 4; w++ {
			d[w] = c.next()
		}
		kps[i] = feature.Keypoint{X: float64(c.next() % 752), Y: float64(c.next() % 480), Desc: d, Right: -1}
	}
	kf := &smap.KeyFrame{ID: c.alloc.Next(), Client: c.id, Keypoints: kps}
	m.AddKeyFrame(kf)
	idx := 0
	// Re-observe the tail of the recent points: this is what links the
	// new keyframe into the covisibility graph.
	tail := c.localPts
	if len(tail) > 2*contNewPtsPerKF {
		tail = tail[len(tail)-2*contNewPtsPerKF:]
	}
	for _, mpID := range tail {
		if err := m.AddObservation(kf.ID, mpID, idx); err == nil {
			idx++
		}
	}
	for p := 0; p < contNewPtsPerKF && idx < contKpsPerKF; p++ {
		mp := &smap.MapPoint{
			ID:     c.alloc.Next(),
			Client: c.id,
			Pos:    geom.Vec3{X: float64(c.next() % 40), Y: float64(c.next() % 30), Z: 2 + float64(c.next()%8)},
			Desc:   kps[idx].Desc,
			RefKF:  kf.ID,
		}
		m.AddMapPoint(mp)
		if err := m.AddObservation(kf.ID, mp.ID, idx); err != nil {
			b.Fatal(err)
		}
		idx++
		c.localPts = append(c.localPts, mp.ID)
	}
	m.UpdateConnections(kf.ID, 5)
	c.ref = kf.ID
}

// trackFrame is the read-heavy hot path, shaped like the tracker's
// searchLocalPoints: take the snapshot local-map view of the reference
// keyframe (lock-free and cached across frames until a relevant
// mutation), run a matching-shaped pass over it, then resolve a
// handful of point positions through the view (the final
// pose-optimization lookups), falling back to the live map for points
// outside the window.
func (c *contentionClient) trackFrame(m *smap.Map) int {
	view := m.LocalView(c.ref, contLocalWindow)
	matched := 0
	for i := range view.Points {
		if feature.Distance(view.Points[i].Desc, c.probe) < 96 {
			matched++
		}
		_ = view.Points[i].Pos.X
	}
	n := len(c.localPts)
	for k := 0; k < 30 && k < n; k++ {
		id := c.localPts[n-1-k]
		if vp, ok := view.Point(id); ok {
			_ = vp.Pos
		} else if mp, ok := m.MapPoint(id); ok {
			_ = mp.Pos
		}
	}
	return matched
}

func (c *contentionClient) runFrames(b *testing.B, m *smap.Map, frames int) {
	for f := 1; f <= frames; f++ {
		c.trackFrame(m)
		if f%contKFEvery == 0 {
			c.insertKeyFrame(b, m)
		}
		if f%contEraseEvery == 0 && len(c.localPts) > 3*contNewPtsPerKF {
			m.EraseMapPoint(c.localPts[0])
			c.localPts = c.localPts[1:]
		}
	}
}

func mutexWaitSeconds() float64 {
	s := []rtm.Sample{{Name: "/sync/mutex/wait/total:seconds"}}
	rtm.Read(s)
	if s[0].Value.Kind() == rtm.KindFloat64 {
		return s[0].Value.Float64()
	}
	return 0
}

// BenchmarkMultiClientMapContention scales concurrent trackers over one
// shared global map (WAL attached) and reports per-client frame cost
// and lock blocked-time. The acceptance bar: 8-client ns/frame within
// 2x of 1-client.
func BenchmarkMultiClientMapContention(b *testing.B) {
	for _, clients := range []int{1, 2, 4, 8} {
		b.Run(benchName("clients", clients), func(b *testing.B) {
			var totalBlocked float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := smap.NewMap(bow.Default())
				mgr, err := persist.Open(persist.Options{Dir: b.TempDir(), CheckpointEvery: -1}, m, nil, 0, nil)
				if err != nil {
					b.Fatal(err)
				}
				cs := make([]*contentionClient, clients)
				for ci := range cs {
					cs[ci] = newContentionClient(ci + 1)
					for k := 0; k < contSeedKFs; k++ {
						cs[ci].insertKeyFrame(b, m)
					}
				}
				w0 := mutexWaitSeconds()
				b.StartTimer()
				var wg sync.WaitGroup
				for _, c := range cs {
					wg.Add(1)
					go func(c *contentionClient) {
						defer wg.Done()
						c.runFrames(b, m, contFramesPerClient)
					}(c)
				}
				wg.Wait()
				b.StopTimer()
				totalBlocked += mutexWaitSeconds() - w0
				mgr.Close()
				b.StartTimer()
			}
			// Per-client wall latency per frame; on a single-core host this
			// scales with the client count even under zero contention, so
			// the aggregate (whole-system throughput) and blocked-time
			// numbers are the contention signal. See DESIGN.md.
			nsPerFrame := float64(b.Elapsed().Nanoseconds()) / float64(b.N*contFramesPerClient)
			b.ReportMetric(nsPerFrame, "ns/frame")
			b.ReportMetric(nsPerFrame/float64(clients), "agg-ns/frame")
			b.ReportMetric(totalBlocked*1e9/float64(b.N*clients*contFramesPerClient), "blocked-ns/frame")
		})
	}
}
