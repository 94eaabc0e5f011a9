package exp

import (
	"fmt"
	"io"
	"time"

	"slamshare/internal/bow"
	"slamshare/internal/camera"
	"slamshare/internal/dataset"
	"slamshare/internal/feature"
	"slamshare/internal/geom"
	"slamshare/internal/gpu"
	"slamshare/internal/mapping"
	"slamshare/internal/smap"
	"slamshare/internal/tracking"
)

// TrackingRow is one bar of Figs. 5 and 8: the per-stage tracking
// latency of one dataset/mode configuration.
type TrackingRow struct {
	Dataset     string
	Mode        camera.Mode
	GPU         bool
	Extract     time.Duration
	Match       time.Duration
	PosePredict time.Duration
	SearchLocal time.Duration
	Total       time.Duration
	FPS         float64
}

// ExtractPct returns ORB extraction's share of the total.
func (r TrackingRow) ExtractPct() float64 {
	if r.Total == 0 {
		return 0
	}
	return 100 * float64(r.Extract) / float64(r.Total)
}

// measureTracking runs the tracker over a sequence prefix and averages
// the per-stage latencies of the steady-state frames.
func measureTracking(seq *dataset.Sequence, dev *gpu.Device, nFrames int) TrackingRow {
	m := smap.NewMap(bow.Default())
	alloc := smap.NewIDAllocator(1)
	ex := feature.NewExtractor(feature.DefaultConfig())
	if dev != nil {
		ex.Par = dev
	}
	tr := tracking.New(m, seq.Rig, ex, alloc, 1, tracking.DefaultConfig())
	mp := mapping.New(m, seq.Rig, alloc, 1, mapping.DefaultConfig())

	var agg tracking.Stages
	counted := 0
	for i := 0; i < nFrames; i++ {
		left, right := seq.StereoFrame(i)
		var prior *geom.SE3
		if i < 12 {
			p := seq.GroundTruth(i).Inverse()
			prior = &p
		}
		res := tr.ProcessFrame(left, right, seq.FrameTime(i), prior)
		if res.NewKF != nil {
			mp.ProcessKeyFrame(res.NewKF)
		}
		// Skip the warm-up frames (map bootstrap) in the average.
		if i >= 5 {
			agg.Add(res.Timing)
			counted++
		}
	}
	avg := agg.Scale(counted)
	row := TrackingRow{
		Dataset: seq.Name, Mode: seq.Rig.Mode, GPU: dev != nil,
		Extract: avg.Extract, Match: avg.Match,
		PosePredict: avg.PosePredict, SearchLocal: avg.SearchLocal,
		Total: avg.Total,
	}
	if avg.Total > 0 {
		row.FPS = float64(time.Second) / float64(avg.Total)
	}
	return row
}

// fig5Configs are the dataset/mode pairs of Fig. 5 / Fig. 8.
func fig5Configs() []*dataset.Sequence {
	return []*dataset.Sequence{
		dataset.KITTI00(camera.Mono),
		dataset.KITTI00(camera.Stereo),
		dataset.V202(camera.Mono),
		dataset.V202(camera.Stereo),
		dataset.TUMfr1(camera.Mono),
	}
}

// Fig5 reproduces the CPU tracking-latency breakdown: ORB extraction
// dominates (>50%), search-local-points is the next largest share.
func Fig5(w io.Writer) ([]TrackingRow, error) {
	n := scale(45)
	var rows []TrackingRow
	for _, seq := range fig5Configs() {
		rows = append(rows, measureTracking(seq, nil, n))
	}
	fmt.Fprintln(w, "Fig 5: ORB-SLAM3 tracking latency with CPU (per-frame averages)")
	printTrackingRows(w, rows)
	return rows, nil
}

// Fig8 reproduces the CPU-versus-GPU comparison: the simulated
// accelerator cuts extraction and search-local-points latency, giving
// ~40% (mono) to >50% (stereo) total reductions.
func Fig8(w io.Writer) ([]TrackingRow, error) {
	n := scale(45)
	dev := gpu.NewDevice(gpu.Config{Lanes: 8, LaunchOverhead: 10 * time.Microsecond, MinGrain: 8})
	var rows []TrackingRow
	for _, seq := range fig5Configs() {
		rows = append(rows, measureTracking(seq, nil, n))
		// Fresh sequences to avoid renderer cache effects between runs.
		seq2, _ := dataset.ByName(seq.Name, seq.Rig.Mode)
		rows = append(rows, measureTracking(seq2, dev, n))
	}
	fmt.Fprintln(w, "Fig 8: ORB-SLAM3 (CPU) vs SLAM-Share (GPU) tracking latency")
	printTrackingRows(w, rows)
	// Summary reductions per config.
	fmt.Fprintln(w)
	tablef(w, "%-22s %-12s %-12s %-10s", "config", "OS3 total", "S-Sh total", "reduction")
	for i := 0; i+1 < len(rows); i += 2 {
		cpu, g := rows[i], rows[i+1]
		red := 100 * (1 - float64(g.Total)/float64(cpu.Total))
		tablef(w, "%-22s %-12v %-12v %8.1f%%",
			fmt.Sprintf("%s (%s)", cpu.Dataset, cpu.Mode), cpu.Total.Round(time.Microsecond*100),
			g.Total.Round(time.Microsecond*100), red)
	}
	return rows, nil
}

func printTrackingRows(w io.Writer, rows []TrackingRow) {
	tablef(w, "%-22s %-6s %-12s %-12s %-12s %-12s %-12s %-8s %-8s",
		"dataset", "gpu", "extract", "match", "pose-pred", "search-loc", "total", "FPS", "extr%")
	for _, r := range rows {
		gpuStr := "cpu"
		if r.GPU {
			gpuStr = "gpu"
		}
		tablef(w, "%-22s %-6s %-12v %-12v %-12v %-12v %-12v %-8.1f %-8.1f",
			fmt.Sprintf("%s (%s)", r.Dataset, r.Mode), gpuStr,
			r.Extract.Round(100*time.Microsecond), r.Match.Round(100*time.Microsecond),
			r.PosePredict.Round(100*time.Microsecond), r.SearchLocal.Round(100*time.Microsecond),
			r.Total.Round(100*time.Microsecond), r.FPS, r.ExtractPct())
	}
}
