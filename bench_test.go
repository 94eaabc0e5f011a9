// Benchmarks, one per table and figure of the paper's evaluation
// (§5), plus ablations of the design choices DESIGN.md calls out.
// Each table/figure bench runs a scaled-down version of the
// corresponding experiment (internal/exp, also runnable standalone via
// cmd/experiments) and reports its headline quantity as a custom
// benchmark metric.
package slamshare_test

import (
	"io"
	"testing"
	"time"

	"slamshare/internal/bow"
	"slamshare/internal/camera"
	"slamshare/internal/dataset"
	"slamshare/internal/exp"
	"slamshare/internal/feature"
	"slamshare/internal/geom"
	"slamshare/internal/gpu"
	"slamshare/internal/holo"
	"slamshare/internal/persist"
	"slamshare/internal/smap"
	"slamshare/internal/wire"
)

func init() {
	exp.Quick = true
	// Benchmarks shrink the experiments further than -quick so a
	// single testing.B iteration stays within seconds.
	exp.ScaleDiv = 8
}

// BenchmarkTable1MapSize reports the serialized map size growth
// (bytes per keyframe) on MH04.
func BenchmarkTable1MapSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table1(io.Discard, false)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(last.SizeMB/float64(last.KeyFrames)*1024, "KB/keyframe")
		b.ReportMetric(last.SizeMB, "MB@50KF")
	}
}

// BenchmarkFig5TrackingCPU reports CPU tracking latency and the
// extraction share on the V202 stereo configuration.
func BenchmarkFig5TrackingCPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig5(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Dataset == "V202" && r.Mode == camera.Stereo {
				b.ReportMetric(float64(r.Total.Milliseconds()), "ms/frame")
				b.ReportMetric(r.ExtractPct(), "extract%")
			}
		}
	}
}

// BenchmarkFig8TrackingGPU reports the GPU tracking-latency reduction.
func BenchmarkFig8TrackingGPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig8(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		var cpu, gpuTot time.Duration
		for _, r := range rows {
			if r.Dataset == "V202" && r.Mode == camera.Stereo {
				if r.GPU {
					gpuTot = r.Total
				} else {
					cpu = r.Total
				}
			}
		}
		if gpuTot > 0 {
			b.ReportMetric(100*(1-float64(gpuTot)/float64(cpu)), "reduction%")
		}
	}
}

// BenchmarkTable2IMURTT reports the ATE increase from 0 to 300 ms RTT.
func BenchmarkTable2IMURTT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table2(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		base := rows[0].WholeATEcm["MH-05 Mono"]
		var at300 float64
		for _, r := range rows {
			if r.RTTms == 300 {
				at300 = r.WholeATEcm["MH-05 Mono"]
			}
		}
		b.ReportMetric(base, "cm@0ms")
		b.ReportMetric(at300, "cm@300ms")
	}
}

// BenchmarkTable3Video reports the video-versus-image bandwidth ratio.
func BenchmarkTable3Video(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table3(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		r := rows[len(rows)-1]
		b.ReportMetric(r.ImageMbps/r.VideoMbps, "bandwidth-ratio")
		b.ReportMetric(r.VideoMbps, "video-Mbps")
	}
}

// BenchmarkFig10aMergeTimeline reports the merge latency and the
// post-merge global-map ATE of the three-client EuRoC timeline.
func BenchmarkFig10aMergeTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig10a(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		var mergeMS float64
		n := 0
		for _, m := range res.Merges {
			if m.Alignment != nil {
				mergeMS += float64(m.Total.Milliseconds())
				n++
			}
		}
		if n > 0 {
			b.ReportMetric(mergeMS/float64(n), "merge-ms")
		}
		if len(res.Series) > 0 {
			b.ReportMetric(res.Series[len(res.Series)-1].ATE*100, "final-ATE-cm")
		}
	}
}

// BenchmarkFig10cVehicular reports the same for the KITTI-05 split.
func BenchmarkFig10cVehicular(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig10c(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Series) > 0 {
			b.ReportMetric(res.Series[len(res.Series)-1].ATE, "final-ATE-m")
		}
	}
}

// BenchmarkTable4MergeLatency reports the baseline-versus-SLAM-Share
// merge-round speedup.
func BenchmarkTable4MergeLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Table4(io.Discard, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SpeedupX, "speedup-x")
		b.ReportMetric(float64(res.SSMerge.Milliseconds()), "ss-merge-ms")
	}
}

// BenchmarkFig11Hologram reports hologram placement error with and
// without map sharing.
func BenchmarkFig11Hologram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig11(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ErrNoShare, "noshare-m")
		b.ReportMetric(res.ErrShare*100, "share-cm")
	}
}

// BenchmarkFig12Network reports user B's cumulative ATE under a 300 ms
// delay relative to the unconstrained run.
func BenchmarkFig12Network(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := exp.Fig12a(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range series {
			if len(s.Points) == 0 {
				continue
			}
			last := s.Points[len(s.Points)-1].ATE
			switch s.Label {
			case "SLAM-Share (no constraint)":
				b.ReportMetric(last*100, "free-cm")
			case "SLAM-Share (+300 ms delay)":
				b.ReportMetric(last*100, "delay300-cm")
			}
		}
	}
}

// BenchmarkFig13ClientCPU reports the client-compute reduction factor.
func BenchmarkFig13ClientCPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig13(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ReductionX, "reduction-x")
	}
}

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
// live map (for checkpointing) and its manager.
func buildPersistMap(b *testing.B, dir string) (*smap.Map, *persist.Manager) {
	b.Helper()
	m := smap.NewMap(bow.Default())
	anchors := holo.NewRegistry()
	anchors.Place("bench", geom.SE3{}, 1, 0)
	mgr, err := persist.Open(persist.Options{Dir: dir, CheckpointEvery: -1}, m, anchors, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	alloc := smap.NewIDAllocator(1)
	s := uint64(17)
	var kfIDs []smap.ID
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
		kfIDs = append(kfIDs, kf.ID)
		for p := 0; p < 40; p++ {
			mp := &smap.MapPoint{ID: alloc.Next(), Client: 1, RefKF: kf.ID}
			m.AddMapPoint(mp)
			m.AddObservation(kf.ID, mp.ID, (p*7)%300)
		}
	}
	_ = kfIDs
	return m, mgr
}

// BenchmarkPersistCheckpoint measures a full snapshot of the global
// map + anchors (encode, durable write, prune) — the work the
// background checkpointer does off the hot path.
func BenchmarkPersistCheckpoint(b *testing.B) {
	dir := b.TempDir()
	_, mgr := buildPersistMap(b, dir)
	defer mgr.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mgr.CheckpointNow(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	mean := mgr.Stats().CheckpointLat.Snapshot().Mean()
	b.ReportMetric(float64(mean.Microseconds())/1000, "checkpoint-ms")
}

// BenchmarkPersistRecovery measures rebuilding the map from disk:
// checkpoint load + journal-tail replay + index rebuild. This is the
// restart-time cost a crashed server pays before accepting clients.
func BenchmarkPersistRecovery(b *testing.B) {
	dir := b.TempDir()
	m, mgr := buildPersistMap(b, dir)
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
