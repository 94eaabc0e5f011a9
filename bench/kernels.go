package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"slamshare/internal/bow"
	"slamshare/internal/dataset"
	"slamshare/internal/feature"
	"slamshare/internal/geom"
	"slamshare/internal/holo"
	"slamshare/internal/img"
	"slamshare/internal/mapping"
	"slamshare/internal/optimize"
	"slamshare/internal/persist"
	"slamshare/internal/smap"
	"slamshare/internal/tracking"
	"slamshare/internal/video"
	"slamshare/internal/wire"
)

// kernelFrames is how many stereo frames of MH04 the fixed-input
// kernels run over.
const kernelFrames = 12

// kernelStat is one kernel's cost per operation. Allocations are the
// deterministic columns: they repeat exactly where times drift.
type kernelStat struct {
	ms     float64 // median
	allocs float64
	bytes  float64
}

// timeOps runs op n times and returns the median time and the mean
// allocations per call.
func timeOps(n int, op func(i int)) kernelStat {
	times := make([]float64, n)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		op(i)
		times[i] = ms(time.Since(t0))
	}
	runtime.ReadMemStats(&m1)
	return kernelStat{
		ms:     median(times),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n),
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
	}
}

// series collects single-call measurements of an operation whose calls
// cannot be made back to back.
type series struct {
	ms            []float64
	allocs, bytes float64
}

func (s *series) add(k kernelStat) {
	s.ms = append(s.ms, k.ms)
	s.allocs += k.allocs
	s.bytes += k.bytes
}

func (s *series) stat() kernelStat {
	n := float64(len(s.ms))
	return kernelStat{median(s.ms), s.allocs / n, s.bytes / n}
}

// put stores a kernel's three numbers under layer.name.
func (k kernelStat) put(m map[string]metric, name string, micro bool) {
	if micro {
		m[name+"_us"] = metric{k.ms * 1e3, "us"}
	} else {
		m[name+"_ms"] = metric{k.ms, "ms"}
	}
	m[name+".allocs_per_op"] = metric{k.allocs, "count"}
	m[name+".bytes_per_op"] = metric{k.bytes, "B"}
}

// kernels times one public function per layer on fixed inputs: the
// first kernelFrames stereo frames of seq and the small map a tracker
// and a mapper build from them. Nothing here depends on the workload.
func kernels(seq *dataset.Sequence, dir string, m map[string]metric) error {
	n := kernelFrames
	lefts, rights := make([]*img.Gray, n), make([]*img.Gray, n)
	timeOps(n, func(i int) { lefts[i], rights[i] = seq.StereoFrame(i * stride) }).put(m, "dataset.render", false)

	// Video: the first frame is intra and primes the streams; the rest
	// are the P-frames a session spends its life on.
	enc, dec := video.NewEncoder(), video.NewDecoder()
	eyes := make([][]byte, n)
	eyes[0] = enc.Encode(lefts[0])
	if _, err := dec.Decode(eyes[0]); err != nil {
		return fmt.Errorf("kernel video decode: %w", err)
	}
	timeOps(n-1, func(i int) { eyes[i+1] = enc.Encode(lefts[i+1]) }).put(m, "video.encode_eye", false)
	var decErr error
	timeOps(n-1, func(i int) {
		if _, err := dec.Decode(eyes[i+1]); err != nil {
			decErr = err
		}
	}).put(m, "video.decode_eye", false)
	if decErr != nil {
		return fmt.Errorf("kernel video decode: %w", decErr)
	}

	cfg := feature.DefaultConfig()
	timeOps(n, func(i int) { img.NewPyramid(lefts[i], cfg.Levels, cfg.ScaleFactor) }).put(m, "img.pyramid", false)

	ex := feature.NewExtractor(cfg)
	kpsL, kpsR := make([][]feature.Keypoint, n), make([][]feature.Keypoint, n)
	timeOps(n, func(i int) { kpsL[i] = ex.Extract(lefts[i]) }).put(m, "feature.extract", false)
	for i := range rights {
		kpsR[i] = ex.Extract(rights[i])
	}
	rig := seq.Rig
	timeOps(n, func(i int) {
		feature.StereoMatchPar(kpsL[i], kpsR[i], rig.Intr.Fx, rig.Baseline, 2, nil)
	}).put(m, "feature.stereo_match", false)

	// Tracking and mapping: one tracker and one mapper over the matched
	// keypoints, as a session runs them, with ground truth as the prior.
	voc := bow.Default()
	lmap := smap.NewMap(voc)
	alloc := smap.NewIDAllocator(1)
	tr := tracking.New(lmap, rig, ex, alloc, 1, tracking.DefaultConfig())
	mp := mapping.New(lmap, rig, alloc, 1, mapping.DefaultConfig())
	var track, keyframe series
	for i := 0; i < n; i++ {
		prior := seq.GroundTruth(i * stride).Inverse()
		var res tracking.Result
		track.add(timeOps(1, func(int) { res = tr.ProcessExtracted(kpsL[i], seq.FrameTime(i*stride), &prior) }))
		if res.NewKF != nil {
			keyframe.add(timeOps(1, func(int) { mp.ProcessKeyFrame(res.NewKF) }))
		}
	}
	if len(keyframe.ms) == 0 {
		return fmt.Errorf("kernel tracker inserted no keyframe in %d frames", n)
	}
	track.stat().put(m, "tracking.process_extracted", false)
	keyframe.stat().put(m, "mapping.process_keyframe", false)

	// Pose optimisation on a fixed synthetic problem.
	rng := rand.New(rand.NewSource(7))
	tcw := seq.GroundTruth(0).Inverse()
	var pts []geom.Vec3
	var uvs []geom.Vec2
	for len(pts) < 300 {
		pc := geom.Vec3{X: rng.Float64()*6 - 3, Y: rng.Float64()*4 - 2, Z: 2 + rng.Float64()*8}
		uv, ok := rig.Intr.Project(pc)
		if !ok || !rig.Intr.InBounds(uv, 0) {
			continue
		}
		pts = append(pts, tcw.Inverse().Apply(pc))
		uvs = append(uvs, geom.Vec2{X: uv.X + rng.NormFloat64(), Y: uv.Y + rng.NormFloat64()})
	}
	start := tcw
	start.T = start.T.Add(geom.Vec3{X: 0.05, Y: -0.03, Z: 0.04})
	timeOps(20, func(int) { optimize.OptimizePose(rig.Intr, start, pts, uvs, nil) }).put(m, "optimize.pose", false)

	// Place recognition, map codec and journal on the kernel map.
	kfs := lmap.KeyFrames()
	timeOps(50, func(i int) { lmap.QueryBow(kfs[i%len(kfs)].Bow, 5, nil) }).put(m, "bow.query", true)
	var blob []byte
	timeOps(10, func(int) { blob = wire.EncodeMap(lmap) }).put(m, "wire.encode_map", false)
	var wireErr error
	timeOps(10, func(int) {
		if _, err := wire.DecodeMap(blob, voc); err != nil {
			wireErr = err
		}
	}).put(m, "wire.decode_map", false)
	if wireErr != nil {
		return fmt.Errorf("kernel map decode: %w", wireErr)
	}
	mgr, err := persist.Open(persist.Options{Dir: filepath.Join(dir, "kernel-wal"), CheckpointEvery: -1},
		smap.NewMap(voc), holo.NewRegistry(), 0, nil)
	if err != nil {
		return fmt.Errorf("kernel journal: %w", err)
	}
	j := mgr.Journal()
	timeOps(50, func(i int) { j.KeyFrameAdded(kfs[i%len(kfs)]) }).put(m, "persist.journal_append", true)
	if err := mgr.Close(); err != nil {
		return fmt.Errorf("kernel journal close: %w", err)
	}
	return nil
}
