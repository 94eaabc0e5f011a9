package exp

import (
	"fmt"
	"io"
	"math"

	"slamshare/internal/camera"
	"slamshare/internal/client"
	"slamshare/internal/dataset"
	"slamshare/internal/metrics"
	"slamshare/internal/offload"
	"slamshare/internal/server"
)

// OffloadRow is one cell block of the adaptive-offloading sweep: one
// offload mode under one RTT, measured over a single-client lockstep
// run.
type OffloadRow struct {
	Mode       string
	RTTms      int
	ATEcm      float64 // live (as-experienced) trajectory error
	UplinkMbps float64 // uplink bitrate the mode actually needs
	Tracked    int     // frames the server answered with a tracked pose
	Steps      int
}

// printOffloadRows renders the sweep table. The format is covered by a
// byte-exact golden test, so changes here must update the golden.
func printOffloadRows(w io.Writer, rows []OffloadRow) {
	tablef(w, "%-8s %-10s %-12s %-14s %-10s", "mode", "RTT (ms)",
		"ATE (cm)", "uplink Mbit/s", "tracked")
	for _, r := range rows {
		tracked := fmt.Sprintf("%d/%d", r.Tracked, r.Steps)
		tablef(w, "%-8s %-10d %-12.2f %-14.2f %-10s",
			r.Mode, r.RTTms, r.ATEcm, r.UplinkMbps, tracked)
	}
}

// offloadRun measures one (mode, RTT) cell: a single MH04 stereo
// client in frame-lockstep virtual time. Full mode uploads video,
// split mode extracts on-device and uploads keypoint messages, shadow
// mode sends only map-sync pings and dead-reckons locally — its ATE
// is pure IMU drift, the floor the other modes are bought against.
func offloadRun(mode offload.Mode, rttMs, nFrames, stride int) (OffloadRow, error) {
	row := OffloadRow{Mode: mode.String(), RTTms: rttMs}
	srv, err := server.New(server.DefaultConfig())
	if err != nil {
		return row, err
	}
	defer srv.Close()
	seq := dataset.MH04(camera.Stereo)
	sess, err := srv.OpenSession(1, seq.Rig)
	if err != nil {
		return row, err
	}
	dev := client.New(1, seq)

	framePeriod := float64(stride) / seq.FPS
	lagSteps := 0
	if rttMs > 0 {
		lagSteps = int(math.Ceil(float64(rttMs) / 1000 / framePeriod))
	}
	var pending []pendingPose
	var upBytes int
	steps := nFrames / stride
	for k := 0; k < steps; k++ {
		i := k * stride
		if i >= seq.FrameCount() {
			break
		}
		row.Steps++
		switch mode {
		case offload.ModeSplit:
			msg := dev.BuildKeypointFrame(i)
			upBytes += len(msg.Encode())
			res, err := sess.HandleKeypoints(msg)
			if err != nil {
				return row, err
			}
			if res.Tracked {
				row.Tracked++
			}
			pending = append(pending, pendingPose{
				frameIdx: i, pose: res.Pose, tracked: res.Tracked, dueStep: k + lagSteps,
			})
		case offload.ModeShadow:
			msg := dev.BuildSync(i)
			upBytes += len(msg.Encode())
			sess.HandleSync(msg)
			// No pose comes back: the device stays on dead reckoning.
		default:
			msg := dev.BuildFrame(i)
			upBytes += len(msg.Video) + len(msg.VideoRight)
			res, err := sess.HandleFrame(msg)
			if err != nil {
				return row, err
			}
			if res.Tracked {
				row.Tracked++
			}
			pending = append(pending, pendingPose{
				frameIdx: i, pose: res.Pose, tracked: res.Tracked, dueStep: k + lagSteps,
			})
		}
		for len(pending) > 0 && pending[0].dueStep <= k {
			pp := pending[0]
			pending = pending[1:]
			dev.ApplyPose(pp.frameIdx, pp.pose, pp.tracked)
		}
	}
	// Poses still in flight when the run ends never reached the device:
	// the live trajectory already reflects that, so they are dropped.
	row.ATEcm = 100 * metrics.ATE(dev.LiveTrajectory(), seq.TruthTrajectory(nFrames, stride))
	virtualSec := float64(row.Steps) * framePeriod
	if virtualSec > 0 {
		row.UplinkMbps = float64(upBytes) * 8 / virtualSec / 1e6
	}
	return row, nil
}

// Offload sweeps the three offload modes across the Table 2 RTT range:
// per mode, the live-trajectory ATE, the uplink bitrate the mode
// needs, and how many frames the server tracked. Full and split track
// with the same accuracy — split trades the video stream for a
// descriptor upload, removing the codec and server extract stages
// from the critical path; shadow shows the dead-reckoning drift a
// session degrades to when the server cannot afford to track it.
func Offload(w io.Writer) ([]OffloadRow, error) {
	rtts := []int{0, 60, 167, 300}
	modes := []offload.Mode{offload.ModeFull, offload.ModeSplit, offload.ModeShadow}
	nFrames := scale(240)
	stride := 2
	var rows []OffloadRow
	for _, mode := range modes {
		for _, rtt := range rtts {
			if mode == offload.ModeShadow && rtt != 0 {
				// Shadow never waits on a pose, so RTT cannot change it.
				continue
			}
			row, err := offloadRun(mode, rtt, nFrames, stride)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	fmt.Fprintln(w, "Adaptive offloading: per-mode accuracy vs RTT (MH-04 stereo, single client)")
	printOffloadRows(w, rows)
	return rows, nil
}
