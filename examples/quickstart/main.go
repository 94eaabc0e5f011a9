// Quickstart: one AR device offloading SLAM to a SLAM-Share edge
// server, in process. The device integrates its IMU and encodes video;
// the server tracks, maps, and returns poses. Prints the device's
// localization error against ground truth.
package main

import (
	"fmt"
	"log"

	"slamshare"
)

func main() {
	fmt.Println(slamshare.String())

	// The edge server owns the shared global map (in a shared-memory
	// region) and a simulated 8-lane GPU for tracking.
	srv, err := slamshare.NewEdgeServer(slamshare.ServerOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	// Replay the MH04 drone sequence (stereo camera + IMU).
	seq, err := slamshare.LoadSequence("MH04", slamshare.Stereo)
	if err != nil {
		log.Fatal(err)
	}
	sess, err := srv.OpenSession(1, seq.Rig)
	if err != nil {
		log.Fatal(err)
	}
	dev := slamshare.NewDevice(1, seq)

	const frames = 90
	tracked := 0
	for i := 0; i < frames; i++ {
		// The device's entire per-frame work: IMU prediction (Alg. 1)
		// plus video encoding.
		msg := dev.BuildUplink(i)
		// The server decodes, extracts ORB features, tracks against the
		// shared map, and answers with a pose (no uplinks queued behind
		// this one, so nothing is shed).
		res, err := sess.Handle(msg, 0)
		if err != nil {
			log.Fatal(err)
		}
		if res.Tracked {
			tracked++
		}
		// The pose flows back into the device's motion model.
		dev.ApplyPose(i, res.Pose, res.Tracked)
		if i%30 == 0 {
			fmt.Printf("frame %3d: tracked=%v inliers=%d stage total=%v\n",
				i, res.Tracked, res.Inliers, res.Timing.Total)
		}
	}

	truth := slamshare.GroundTruth(seq, frames, 1)
	ate := slamshare.ATE(dev.Trajectory(), truth)
	fmt.Printf("\ntracked %d/%d frames\n", tracked, frames)
	fmt.Printf("device trajectory ATE: %.3f m\n", ate)
	fmt.Printf("global map: %d keyframes, %d map points\n",
		srv.GlobalMap().NKeyFrames(), srv.GlobalMap().NMapPoints())
	fmt.Printf("client uplink: %.2f KB/frame (video)\n",
		float64(dev.UplinkBytes())/float64(dev.FramesSent())/1024)
}
