// Ablations of the design choices DESIGN.md calls out, and the cost of
// persisting the map. The paper's tables and figures themselves are
// regenerated by cmd/experiments (internal/exp).
package slamshare_test

import (
	"testing"
	"time"

	"slamshare/internal/bow"
	"slamshare/internal/camera"
	"slamshare/internal/dataset"
	"slamshare/internal/feature"
	"slamshare/internal/geom"
	"slamshare/internal/gpu"
	"slamshare/internal/holo"
	"slamshare/internal/obs"
	"slamshare/internal/persist"
	"slamshare/internal/smap"
	"slamshare/internal/wire"
)

// ---- Ablation benches (design choices called out in DESIGN.md). ----

// BenchmarkAblationGPULanes sweeps the simulated GPU's lane count over
// the extraction kernel.
func BenchmarkAblationGPULanes(b *testing.B) {
	seq := dataset.V202(camera.Stereo)
	frame := seq.Frame(0)
	for _, lanes := range []int{1, 2, 4, 8, 16, 32} {
		b.Run(benchName("lanes", lanes), func(b *testing.B) {
			dev := gpu.NewDevice(gpu.Config{Lanes: lanes, LaunchOverhead: 10 * time.Microsecond, MinGrain: 8})
			ex := &feature.Extractor{Cfg: feature.DefaultConfig(), Par: dev}
			ex.Extract(frame) // warm-up
			w0, m0 := dev.Counters()
			t0 := time.Now()
			for i := 0; i < b.N; i++ {
				ex.Extract(frame)
			}
			wall := time.Since(t0)
			w1, m1 := dev.Counters()
			modeled := wall - (w1 - w0) + (m1 - m0)
			b.ReportMetric(float64(modeled.Milliseconds())/float64(b.N), "modeled-ms/op")
		})
	}
}

// BenchmarkAblationQuadtree compares quadtree keypoint distribution
// against taking every detected corner.
func BenchmarkAblationQuadtree(b *testing.B) {
	seq := dataset.V202(camera.Stereo)
	frame := seq.Frame(0)
	cfgDist := feature.DefaultConfig()
	cfgAll := feature.DefaultConfig()
	cfgAll.NFeatures = 1 << 20 // quota never binds: no distribution
	b.Run("quadtree", func(b *testing.B) {
		ex := feature.NewExtractor(cfgDist)
		for i := 0; i < b.N; i++ {
			kps := ex.Extract(frame)
			b.ReportMetric(float64(len(kps)), "keypoints")
		}
	})
	b.Run("all-corners", func(b *testing.B) {
		ex := feature.NewExtractor(cfgAll)
		for i := 0; i < b.N; i++ {
			kps := ex.Extract(frame)
			b.ReportMetric(float64(len(kps)), "keypoints")
		}
	})
}

// BenchmarkAblationVocabularyDepth measures place-recognition query
// cost versus vocabulary depth.
func BenchmarkAblationVocabularyDepth(b *testing.B) {
	corpus := make([]feature.Descriptor, 3000)
	s := uint64(7)
	for i := range corpus {
		for w := 0; w < 4; w++ {
			s = s*6364136223846793005 + 1442695040888963407
			corpus[i][w] = s
		}
	}
	for _, depth := range []int{2, 3, 4} {
		b.Run(benchName("depth", depth), func(b *testing.B) {
			voc := bow.Train(corpus, 8, depth, 1)
			descs := corpus[:300]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				voc.BowOf(descs)
			}
			b.ReportMetric(float64(voc.Words()), "words")
		})
	}
}

// BenchmarkAblationSharedMemoryVsSerialized is the core A/B of the
// paper: inserting a client map into the global map by pointer
// (shared memory) versus serialize+deserialize+insert.
func BenchmarkAblationSharedMemoryVsSerialized(b *testing.B) {
	build := func() *smap.Map {
		m := smap.NewMap(bow.Default())
		alloc := smap.NewIDAllocator(3)
		s := uint64(11)
		for k := 0; k < 20; k++ {
			kps := make([]feature.Keypoint, 300)
			for i := range kps {
				var d feature.Descriptor
				for w := 0; w < 4; w++ {
					s = s*6364136223846793005 + 1442695040888963407
					d[w] = s
				}
				kps[i] = feature.Keypoint{X: float64(i), Y: float64(k), Desc: d, Right: -1}
			}
			m.AddKeyFrame(&smap.KeyFrame{ID: alloc.Next(), Keypoints: kps})
		}
		return m
	}
	b.Run("shared-memory-insert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cmap := build()
			global := smap.NewMap(bow.Default())
			b.StartTimer()
			kfIDs, _ := global.InsertAllStaged(cmap)
			global.PublishKeyFrames(kfIDs)
		}
	})
	b.Run("serialized-insert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cmap := build()
			global := smap.NewMap(bow.Default())
			b.StartTimer()
			data := wire.EncodeMap(cmap)
			decoded, err := wire.DecodeMap(data, bow.Default())
			if err != nil {
				b.Fatal(err)
			}
			kfIDs, _ := global.InsertAllStaged(decoded)
			global.PublishKeyFrames(kfIDs)
		}
	})
}

// buildPersistMap journals a 20-keyframe map into dir and returns the
// live map (for checkpointing) and its manager, which reports its
// spans to tr (nil for none).
func buildPersistMap(b *testing.B, dir string, tr *obs.Tracer) (*smap.Map, *persist.Manager) {
	b.Helper()
	m := smap.NewMap(bow.Default())
	anchors := holo.NewRegistry()
	anchors.Place("bench", geom.SE3{}, 1, 0)
	mgr, err := persist.Open(persist.Options{Dir: dir, CheckpointEvery: -1, Obs: tr}, m, anchors, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	alloc := smap.NewIDAllocator(1)
	s := uint64(17)
	for k := 0; k < 20; k++ {
		kps := make([]feature.Keypoint, 300)
		for i := range kps {
			var d feature.Descriptor
			for w := 0; w < 4; w++ {
				s = s*6364136223846793005 + 1442695040888963407
				d[w] = s
			}
			kps[i] = feature.Keypoint{X: float64(i), Y: float64(k), Desc: d, Right: -1}
		}
		kf := &smap.KeyFrame{ID: alloc.Next(), Client: 1, Keypoints: kps}
		m.AddKeyFrame(kf)
		for p := 0; p < 40; p++ {
			mp := &smap.MapPoint{ID: alloc.Next(), Client: 1, RefKF: kf.ID}
			m.AddMapPoint(mp)
			m.AddObservation(kf.ID, mp.ID, (p*7)%300)
		}
	}
	return m, mgr
}

// BenchmarkPersistCheckpoint measures a full snapshot of the global
// map + anchors (encode, durable write, prune) — the work the
// background checkpointer does off the hot path.
func BenchmarkPersistCheckpoint(b *testing.B) {
	dir := b.TempDir()
	tr := obs.NewTracer(obs.NewRegistry(), obs.DefaultRingSize)
	_, mgr := buildPersistMap(b, dir, tr)
	defer mgr.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mgr.CheckpointNow(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	mean := tr.Registry().Histogram("persist.checkpoint").Snapshot().Mean()
	b.ReportMetric(float64(mean.Microseconds())/1000, "checkpoint-ms")
}

// BenchmarkPersistRecovery measures rebuilding the map from disk:
// checkpoint load + journal-tail replay + index rebuild. This is the
// restart-time cost a crashed server pays before accepting clients.
func BenchmarkPersistRecovery(b *testing.B) {
	dir := b.TempDir()
	m, mgr := buildPersistMap(b, dir, nil)
	if err := mgr.CheckpointNow(); err != nil {
		b.Fatal(err)
	}
	// Leave a journal tail beyond the checkpoint.
	alloc := smap.NewIDAllocatorFrom(1, m.MaxSeq(1))
	for k := 0; k < 5; k++ {
		m.AddKeyFrame(&smap.KeyFrame{ID: alloc.Next(), Client: 1,
			Keypoints: make([]feature.Keypoint, 100)})
	}
	if err := mgr.Flush(); err != nil {
		b.Fatal(err)
	}
	mgr.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := persist.Recover(dir, bow.Default())
		if err != nil {
			b.Fatal(err)
		}
		if rec.Map.NKeyFrames() != m.NKeyFrames() {
			b.Fatalf("recovered %d keyframes, want %d", rec.Map.NKeyFrames(), m.NKeyFrames())
		}
		if i == b.N-1 {
			b.ReportMetric(float64(rec.ReplayTime.Microseconds())/1000, "recover-ms")
			b.ReportMetric(float64(rec.ReplayedRecords), "replayed-records")
		}
	}
}

func benchName(prefix string, v int) string {
	const digits = "0123456789"
	if v == 0 {
		return prefix + "-0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v%10]
		v /= 10
	}
	return prefix + "-" + string(buf[i:])
}
