package exp

import (
	"fmt"
	"io"
	"sort"
	"time"

	"slamshare/internal/camera"
	"slamshare/internal/client"
	"slamshare/internal/dataset"
	"slamshare/internal/geom"
	"slamshare/internal/merge"
	"slamshare/internal/metrics"
	"slamshare/internal/server"
	"slamshare/internal/worldgen"
)

// TimelinePoint is one sample of the global-map-ATE-versus-time curve.
type TimelinePoint struct {
	T   float64
	ATE float64
}

// Fig10Result is the outcome of a multi-client merge timeline.
type Fig10Result struct {
	Series  []TimelinePoint
	Merges  []merge.Report
	MergeAt []float64 // virtual merge times per joining client
	// Final trajectories per client (estimate and ground truth), for
	// Fig. 10b.
	Est   map[string]metrics.Trajectory
	Truth map[string]metrics.Trajectory
	// FinalATE per client.
	FinalATE map[string]float64
}

// runTimeline drives the joining-clients scenario: each participant
// starts displaced into its own local frame (except the first, which
// founds the global frame); merges snap them together.
func runTimeline(parts []*Participant, framePeriod float64, steps int, sampleEvery int) (*Fig10Result, error) {
	res := &Fig10Result{
		Est:      map[string]metrics.Trajectory{},
		Truth:    map[string]metrics.Trajectory{},
		FinalATE: map[string]float64{},
	}
	r, err := NewRunner(server.DefaultConfig(), framePeriod, parts...)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	r.OnStep = func(step int, vt float64) bool {
		if step%sampleEvery == 0 {
			res.Series = append(res.Series, TimelinePoint{T: vt, ATE: globalMapATE(r.Srv, parts)})
		}
		return false
	}
	if err := r.Run(steps); err != nil {
		return nil, err
	}
	res.Merges = r.Srv.MergeReports()
	for _, p := range parts {
		if p.Merged {
			res.MergeAt = append(res.MergeAt, p.MergeAt)
		}
		res.Est[p.Name] = p.Dev.Trajectory()
		res.Truth[p.Name] = p.Seq.TruthTrajectory(p.frameIdx, p.Stride)
		res.FinalATE[p.Name] = metrics.ATE(res.Est[p.Name], res.Truth[p.Name])
	}
	return res, nil
}

// Fig10a reproduces the EuRoC three-client timeline: A founds the
// global map, B joins displaced at ~1/8 of the run, C joins displaced
// near the middle; the global-map ATE spikes while a fragment is
// unmerged and collapses after each merge.
func Fig10a(w io.Writer) (*Fig10Result, error) {
	seqA := dataset.MH04(camera.Stereo)
	seqB := dataset.MH05(camera.Stereo)
	seqC := dataset.MH04(camera.Stereo) // C re-explores the hall later
	seqC.Seed += 991

	stride := 2
	steps := scale(330)
	parts := []*Participant{
		{Name: "A", Seq: seqA, Stride: stride,
			LeaveStep: steps * 3 / 4}, // "after 40 seconds, user A stops"
		{Name: "B", Dev: client.NewDisplaced(2, seqB, 0.08, geom.Vec3{X: 0.5, Y: -0.35, Z: 0.1}),
			Seq: seqB, Stride: stride, JoinStep: steps / 8},
		{Name: "C", Dev: client.NewDisplaced(3, seqC, -0.1, geom.Vec3{X: -0.4, Y: 0.5, Z: -0.05}),
			Seq: seqC, Stride: stride, JoinStep: steps / 2},
	}
	res, err := runTimeline(parts, float64(stride)/seqA.FPS, steps, 4)
	if err != nil {
		return nil, err
	}
	printTimeline(w, "Fig 10a: cumulative global-map ATE vs time, 3 clients (EuRoC)", res)
	return res, nil
}

// Fig10b prints the final trajectories of the Fig. 10a scenario
// against ground truth.
func Fig10b(w io.Writer) (*Fig10Result, error) {
	res, err := Fig10a(io.Discard)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "Fig 10b: final trajectories vs ground truth (sampled every 2 s)")
	tablef(w, "%-8s %-10s %-26s %-26s %-10s", "client", "t (s)", "estimate (x,y,z)", "truth (x,y,z)", "err (m)")
	for _, name := range []string{"A", "B", "C"} {
		est := res.Est[name]
		gt := res.Truth[name]
		for _, p := range est {
			if int(p.T*10)%20 != 0 { // every 2 s
				continue
			}
			tp, ok := gt.At(p.T)
			if !ok {
				continue
			}
			tablef(w, "%-8s %-10.1f (%7.2f,%7.2f,%6.2f)    (%7.2f,%7.2f,%6.2f)   %-10.3f",
				name, p.T, p.Pos.X, p.Pos.Y, p.Pos.Z, tp.X, tp.Y, tp.Z, p.Pos.Dist(tp))
		}
	}
	for _, name := range []string{"A", "B", "C"} {
		tablef(w, "client %s final ATE: %.3f m", name, res.FinalATE[name])
	}
	return res, nil
}

// Fig10c reproduces the vehicular timeline: KITTI-05 split into three
// per-client segments over the same streets, each joining displaced.
func Fig10c(w io.Writer) (*Fig10Result, error) {
	full := dataset.KITTI05(camera.Stereo)
	stride := 2
	framePeriod := float64(stride) / full.FPS
	steps := scale(300)

	// Three vehicles covering overlapping stretches of the route
	// (the paper splits the full 92 s recording into thirds whose
	// boundaries adjoin; at reduced scale the segments must overlap
	// explicitly so each joining client's start lies on mapped road).
	segDur := float64(steps) * framePeriod
	var parts []*Participant
	for i := 0; i < 3; i++ {
		t0 := 0.45 * segDur * float64(i)
		seg := &dataset.Sequence{
			Name:      fmt.Sprintf("KITTI-05-v%d", i+1),
			World:     full.World,
			Traj:      &worldgen.SegmentTrajectory{Inner: full.Traj, T0: t0, T1: full.Duration()},
			Rig:       full.Rig,
			FPS:       full.FPS,
			IMURate:   full.IMURate,
			Noise:     full.Noise,
			RenderCfg: full.RenderCfg,
			Seed:      full.Seed + int64(i+1)*7919,
		}
		p := &Participant{Name: fmt.Sprintf("K%d", i+1), Seq: seg, Stride: stride, JoinStep: i * steps / 3}
		if i > 0 {
			p.Dev = client.NewDisplaced(uint32(i+1), seg, 0.02*float64(i), geom.Vec3{X: 2 * float64(i), Y: -1.5})
		}
		parts = append(parts, p)
	}
	res, err := runTimeline(parts, framePeriod, steps, 4)
	if err != nil {
		return nil, err
	}
	printTimeline(w, "Fig 10c: cumulative global-map ATE vs time, 3 clients (KITTI-05)", res)
	return res, nil
}

func printTimeline(w io.Writer, title string, res *Fig10Result) {
	fmt.Fprintln(w, title)
	tablef(w, "%-10s %-12s", "t (s)", "ATE (m)")
	for _, p := range res.Series {
		tablef(w, "%-10.1f %-12.3f", p.T, p.ATE)
	}
	for i, m := range res.Merges {
		if m.Alignment == nil {
			tablef(w, "merge %d: founding insert (%d KFs) in %v", i+1, m.InsertKFs, m.Total.Round(time.Millisecond))
		} else {
			tablef(w, "merge %d: %d KFs aligned (%d inliers, %d fused) in %v", i+1,
				m.InsertKFs, m.Alignment.Inliers, m.FusedPts, m.Total.Round(time.Millisecond))
		}
	}
	// By name, which for A/B/C and K1..K3 is the order they joined in.
	names := make([]string, 0, len(res.FinalATE))
	for name := range res.FinalATE {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tablef(w, "client %s final ATE: %.3f m", name, res.FinalATE[name])
	}
}
