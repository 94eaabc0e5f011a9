package exp

import (
	"fmt"
	"io"

	"slamshare/internal/camera"
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
	seq := dataset.MH04(camera.Stereo)
	p := &Participant{Seq: seq, Stride: stride, Link: Link{DelaySec: float64(rttMs) / 2000}}
	r, err := NewRunner(server.DefaultConfig(), float64(stride)/seq.FPS, p)
	if err != nil {
		return row, err
	}
	defer r.Close()
	p.Dev.ForceMode(mode)
	if err := r.Run(nFrames / stride); err != nil {
		return row, err
	}
	row.Steps, row.Tracked = p.Steps, p.Tracked
	// The live trajectory is what the device showed: poses still in
	// flight when the run ends never reached it.
	row.ATEcm = 100 * metrics.ATE(p.Dev.LiveTrajectory(), seq.TruthTrajectory(nFrames, stride))
	virtualSec := float64(row.Steps) * r.FramePeriod
	if virtualSec > 0 {
		row.UplinkMbps = float64(p.Dev.UplinkBytes()) * 8 / virtualSec / 1e6
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
