package exp

import (
	"fmt"
	"io"

	"slamshare/internal/baseline"
	"slamshare/internal/camera"
	"slamshare/internal/dataset"
	"slamshare/internal/geom"
	"slamshare/internal/metrics"
	"slamshare/internal/server"
)

// Fig12Series is a labelled ATE-versus-time curve.
type Fig12Series struct {
	Label  string
	Points []TimelinePoint
	Missed int // baseline: server updates missed
}

// runSlamShareB runs the two-client scenario of Fig. 10b from user B's
// perspective under the given link and returns B's trajectory plus
// ground truth.
func runSlamShareB(link Link, steps, stride int) (metrics.Trajectory, metrics.Trajectory, error) {
	seqA := dataset.MH04(camera.Stereo)
	seqB := dataset.MH05(camera.Stereo)
	// B is not displaced here: Fig. 12 isolates network effects, and
	// the baseline client it is compared against also starts in the
	// world frame (the merge dynamics live in Fig. 10).
	b := &Participant{Name: "B", Seq: seqB, Stride: stride, JoinStep: steps / 8, Link: link}
	r, err := NewRunner(server.DefaultConfig(), float64(stride)/seqA.FPS,
		&Participant{Name: "A", Seq: seqA, Stride: stride, Link: link}, b)
	if err != nil {
		return nil, nil, err
	}
	defer r.Close()
	if err := r.Run(steps); err != nil {
		return nil, nil, err
	}
	// Short-term/cumulative curves reflect the experienced trajectory.
	return b.Dev.LiveTrajectory(), seqB.TruthTrajectory(b.frameIdx, stride), nil
}

// Fig12a reproduces the cumulative-ATE-under-network-conditions study:
// SLAM-Share under no constraint, +300 ms delay, 18.7 and 9.4 Mbit/s
// caps, against single-user ORB-SLAM3 on the same trajectory.
func Fig12a(w io.Writer) ([]Fig12Series, error) {
	stride := 2
	steps := scale(270)
	conds := []struct {
		label string
		link  Link
	}{
		{"SLAM-Share (no constraint)", Link{}},
		{"SLAM-Share (+300 ms delay)", Link{DelaySec: 0.15}},
		{"SLAM-Share (18.7 Mbit/s)", Link{UplinkBps: 18.7e6}},
		{"SLAM-Share (9.4 Mbit/s)", Link{UplinkBps: 9.4e6}},
	}
	var out []Fig12Series
	for _, c := range conds {
		est, gt, err := runSlamShareB(c.link, steps, stride)
		if err != nil {
			return nil, err
		}
		s := Fig12Series{Label: c.label}
		for _, p := range metrics.CumulativeSeries(est, gt, 1) {
			s.Points = append(s.Points, TimelinePoint{T: p.T, ATE: p.ATE})
		}
		out = append(out, s)
	}
	// Single-user vanilla ORB-SLAM3 (tracker+mapper, no offload).
	seq := dataset.MH05(camera.Stereo)
	cl, _ := onDeviceSLAM(seq, steps*stride, stride)
	est, gt := cl.Trajectory(), seq.TruthTrajectory(steps*stride, stride)
	s := Fig12Series{Label: "ORB-SLAM3 (single user)"}
	for _, p := range metrics.CumulativeSeries(est, gt, 1) {
		s.Points = append(s.Points, TimelinePoint{T: p.T, ATE: p.ATE})
	}
	out = append(out, s)

	fmt.Fprintln(w, "Fig 12a: cumulative ATE of user B (MH05) under network conditions")
	printSeries(w, out)
	return out, nil
}

// runBaselineB runs the baseline system from user B's perspective:
// full local SLAM on a constrained device, serialized map exchanges
// whose round-trip latency (in virtual time) comes from the link.
// Updates whose round would overlap the next one are missed, as in
// Fig. 12c's 38%-missed observation.
func runBaselineB(link Link, steps, stride int) (metrics.Trajectory, metrics.Trajectory, int, error) {
	cfg := baseline.DefaultConfig()
	cfg.HoldDownFrames = 120
	seqA := dataset.MH04(camera.Stereo)
	seqB := dataset.MH05(camera.Stereo)
	bsrv := baseline.NewServer(cfg, seqA.Rig.Intr)
	bclA := baseline.NewClient(1, seqA, cfg)
	bclB := baseline.NewClient(2, seqB, cfg)

	framePeriod := float64(stride) / seqA.FPS
	missed := 0
	// inFlightUntil: virtual time when B's current exchange completes.
	inFlightUntil := -1.0
	var pendingPortion []byte
	var pendingAlign geom.Sim3

	bps := link.UplinkBps
	if bps <= 0 {
		bps = 1e9
	}
	for s := 0; s < steps; s++ {
		vt := float64(s) * framePeriod
		i := s * stride
		// Deliver a completed exchange.
		if pendingPortion != nil && vt >= inFlightUntil {
			if _, err := bclB.Integrate(pendingPortion, pendingAlign); err != nil {
				return nil, nil, 0, err
			}
			pendingPortion = nil
		}
		for _, cl := range []*baseline.Client{bclA, bclB} {
			if !cl.CanProcess(i) {
				continue
			}
			st := cl.Step(i)
			if st.Upload == nil {
				continue
			}
			if cl == bclA {
				// A's rounds proceed out of band (they contend for the
				// same link in reality; modelled independently).
				portion, align, _, err := bsrv.HandleUpload(st.Upload)
				if err == nil {
					_, _ = bclA.Integrate(portion, align)
				}
				continue
			}
			// B's round: if the previous exchange is still in flight,
			// this update is missed entirely.
			if pendingPortion != nil || vt < inFlightUntil {
				missed++
				continue
			}
			portion, align, srvRep, err := bsrv.HandleUpload(st.Upload)
			if err != nil {
				missed++
				continue
			}
			xfer := float64(srvRep.UploadBytes+srvRep.ReturnBytes) * 8 / bps
			rtt := 2 * link.DelaySec
			inFlightUntil = vt + xfer + rtt +
				(srvRep.Deserialize + srvRep.Merge + srvRep.DataProc).Seconds()
			pendingPortion = portion
			pendingAlign = align
		}
	}
	nB := steps * stride
	return bclB.Trajectory(), seqB.TruthTrajectory(nB, stride), missed, nil
}

// Fig12b compares short-term ATE under +300 ms delay: baseline versus
// SLAM-Share.
func Fig12b(w io.Writer) ([]Fig12Series, error) {
	return fig12ShortTerm(w, "Fig 12b: short-term ATE under +300 ms delay",
		[]struct {
			label    string
			link     Link
			baseline bool
		}{
			{"Baseline (no delay)", Link{}, true},
			{"Baseline (+300 ms)", Link{DelaySec: 0.15}, true},
			{"SLAM-Share (no delay)", Link{}, false},
			{"SLAM-Share (+300 ms)", Link{DelaySec: 0.15}, false},
		})
}

// Fig12c compares short-term ATE under bandwidth caps.
func Fig12c(w io.Writer) ([]Fig12Series, error) {
	return fig12ShortTerm(w, "Fig 12c: short-term ATE under bandwidth caps",
		[]struct {
			label    string
			link     Link
			baseline bool
		}{
			{"Baseline (18.7 Mbit/s)", Link{UplinkBps: 18.7e6}, true},
			{"Baseline (9.4 Mbit/s)", Link{UplinkBps: 9.4e6}, true},
			{"SLAM-Share (18.7 Mbit/s)", Link{UplinkBps: 18.7e6}, false},
			{"SLAM-Share (9.4 Mbit/s)", Link{UplinkBps: 9.4e6}, false},
		})
}

func fig12ShortTerm(w io.Writer, title string, conds []struct {
	label    string
	link     Link
	baseline bool
}) ([]Fig12Series, error) {
	stride := 2
	steps := scale(270)
	var out []Fig12Series
	for _, c := range conds {
		var est, gt metrics.Trajectory
		var missed int
		var err error
		if c.baseline {
			est, gt, missed, err = runBaselineB(c.link, steps, stride)
		} else {
			est, gt, err = runSlamShareB(c.link, steps, stride)
		}
		if err != nil {
			return nil, err
		}
		s := Fig12Series{Label: c.label, Missed: missed}
		// Short-term window scaled to the quick runs (the paper uses
		// 5 s on minute-long trajectories).
		for _, p := range metrics.ShortTermSeries(est, gt, 1, 3) {
			s.Points = append(s.Points, TimelinePoint{T: p.T, ATE: p.ATE})
		}
		out = append(out, s)
	}
	fmt.Fprintln(w, title)
	printSeries(w, out)
	return out, nil
}

func printSeries(w io.Writer, series []Fig12Series) {
	for _, s := range series {
		var peak, sum float64
		for _, p := range s.Points {
			sum += p.ATE
			if p.ATE > peak {
				peak = p.ATE
			}
		}
		mean := 0.0
		if len(s.Points) > 0 {
			mean = sum / float64(len(s.Points))
		}
		extra := ""
		if s.Missed > 0 {
			extra = fmt.Sprintf("  (missed %d updates)", s.Missed)
		}
		tablef(w, "%-34s mean %.3f m, peak %.3f m%s", s.Label, mean, peak, extra)
		for _, p := range s.Points {
			tablef(w, "    t=%5.1f  ATE=%.3f", p.T, p.ATE)
		}
	}
}
