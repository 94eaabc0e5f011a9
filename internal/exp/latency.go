package exp

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"slamshare/internal/camera"
	"slamshare/internal/client"
	"slamshare/internal/dataset"
	"slamshare/internal/geom"
	"slamshare/internal/obs"
	"slamshare/internal/server"
)

// LatencyRow is one stage of the end-to-end pipeline breakdown: the
// quantiles of that stage's latency histogram over a seeded run.
type LatencyRow struct {
	Stage string
	Count uint64
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
	Max   time.Duration
	// Share is this stage's percentage of the total frame.total time
	// (negative when frame.total was not recorded).
	Share float64
}

// latencyStageOrder lists the pipeline stages in processing order —
// the order Fig. 5/8 stack their bars. Stages absent from the registry
// are skipped; registered histograms not in this list are appended
// alphabetically.
var latencyStageOrder = []string{
	"client.encode",
	"decode",
	"track.queue",
	"track.extract",
	"track.match",
	"track.pose_predict",
	"track.search_local",
	"track.total",
	"mapping.keyframe",
	"mapping.local_ba",
	"merge.detect",
	"merge.align",
	"merge.insert",
	"merge.fuse",
	"merge.ba",
	"merge.total",
	"wal.append",
	"persist.checkpoint",
	"frame.total",
}

// LatencyRows extracts the per-stage breakdown from a registry in
// pipeline order.
func LatencyRows(reg *obs.Registry) []LatencyRow {
	names := reg.HistogramNames()
	present := make(map[string]bool, len(names))
	for _, n := range names {
		present[n] = true
	}
	ordered := make([]string, 0, len(names))
	for _, n := range latencyStageOrder {
		if present[n] {
			ordered = append(ordered, n)
			present[n] = false
		}
	}
	var extra []string
	for _, n := range names {
		if present[n] {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	ordered = append(ordered, extra...)

	var frameSum time.Duration
	snaps := make(map[string]obs.HistogramSnapshot, len(ordered))
	for _, n := range ordered {
		s := reg.Histogram(n).Snapshot()
		snaps[n] = s
		if n == "frame.total" {
			frameSum = s.Sum
		}
	}
	rows := make([]LatencyRow, 0, len(ordered))
	for _, n := range ordered {
		s := snaps[n]
		if s.Count == 0 {
			continue
		}
		r := LatencyRow{
			Stage: n,
			Count: s.Count,
			P50:   s.Quantile(0.50),
			P90:   s.Quantile(0.90),
			P99:   s.Quantile(0.99),
			Max:   s.Max,
			Share: -1,
		}
		if frameSum > 0 {
			r.Share = 100 * float64(s.Sum) / float64(frameSum)
		}
		rows = append(rows, r)
	}
	return rows
}

// printLatencyRows renders the breakdown table. The format is covered
// by a byte-exact golden test, so changes here must update the golden.
func printLatencyRows(w io.Writer, rows []LatencyRow) {
	tablef(w, "%-20s %8s  %-11s %-11s %-11s %-11s %7s",
		"stage", "count", "p50", "p90", "p99", "max", "share")
	for _, r := range rows {
		share := "      -"
		if r.Share >= 0 {
			share = fmt.Sprintf("%6.1f%%", r.Share)
		}
		tablef(w, "%-20s %8d  %-11v %-11v %-11v %-11v %7s",
			r.Stage, r.Count,
			r.P50.Round(time.Microsecond), r.P90.Round(time.Microsecond),
			r.P99.Round(time.Microsecond), r.Max.Round(time.Microsecond),
			share)
	}
}

// Latency runs the two-client seeded scenario with the full pipeline
// instrumented (decode, tracking stages, mapping, merge, WAL,
// checkpoint) and prints the per-stage latency breakdown — the live
// counterpart of Figs. 5/8, read from the same histograms the
// -debug-addr endpoint serves.
func Latency(w io.Writer) ([]LatencyRow, error) {
	dir, err := os.MkdirTemp("", "slamshare-latency-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	cfg := server.DefaultConfig()
	cfg.Persist.Dir = dir
	cfg.Persist.CheckpointEvery = -1 // checkpoint once, explicitly, below
	seqA := dataset.MH04(camera.Stereo)
	seqB := dataset.MH05(camera.Stereo)
	stride := 2
	steps := scale(150)
	r, err := NewRunner(cfg, float64(stride)/seqA.FPS,
		&Participant{Name: "A", Seq: seqA, Stride: stride},
		// B starts displaced so the run exercises the real merge path
		// (Fig. 7): its merge stages then appear in the breakdown.
		&Participant{Name: "B", Dev: client.NewDisplaced(2, seqB, 0.35, geom.Vec3{X: 1.5, Y: -0.8}),
			Seq: seqB, Stride: stride, JoinStep: steps / 10})
	if err != nil {
		return nil, err
	}
	defer r.Close()
	srv := r.Srv
	for _, p := range r.Parts {
		p.Dev.Obs = srv.Obs()
	}
	if err := r.Run(steps); err != nil {
		return nil, err
	}

	// One explicit checkpoint so persist.checkpoint appears alongside
	// the wal.append spans the run already produced.
	if err := srv.Persist().CheckpointNow(); err != nil {
		return nil, err
	}

	rows := LatencyRows(srv.Obs().Registry())
	fmt.Fprintln(w, "Per-stage pipeline latency, 2 clients (MH04+MH05 stereo), quantiles over the run")
	printLatencyRows(w, rows)
	return rows, nil
}
