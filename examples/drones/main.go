// Drones: the paper's running example (§4.1) — two drones flying
// through a hall with AR obstacle highlights. Drone A discovers an
// obstacle and anchors a highlight in the shared map; drone B, joining
// shortly after, sees the highlight at the correct position as soon as
// its map merges, and refines the obstacle position with its own
// observations.
package main

import (
	"fmt"
	"log"

	"slamshare"
)

func main() {
	srv, err := slamshare.NewEdgeServer(slamshare.ServerOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	seqA, _ := slamshare.LoadSequence("MH04", slamshare.Stereo)
	seqB, _ := slamshare.LoadSequence("MH05", slamshare.Stereo)
	sessA, _ := srv.OpenSession(1, seqA.Rig)
	sessB, _ := srv.OpenSession(2, seqB.Rig)
	droneA := slamshare.NewDevice(1, seqA)
	// Drone B takes off later from a different pad: displaced frame.
	droneB := slamshare.NewDisplacedDevice(2, seqB, -0.06, slamshare.Vec3{X: -0.5, Y: 0.4})

	anchors := slamshare.NewAnchorRegistry()
	const frames = 140
	const bJoins = 40

	for i := 0; i < frames; i++ {
		ra, err := sessA.Handle(droneA.BuildUplink(i), 0)
		if err != nil {
			log.Fatal(err)
		}
		droneA.ApplyPose(i, ra.Pose, ra.Tracked)

		// Drone A marks an obstacle 1.5 m ahead every 60 frames.
		if ra.Tracked && i%60 == 30 {
			label := fmt.Sprintf("obstacle-%d", anchors.Len()+1)
			id := anchors.PlaceAhead(label, ra.Pose.Inverse(), 1.5, 1, seqA.FrameTime(i))
			a, _ := anchors.Get(id)
			fmt.Printf("t=%4.1fs drone A highlights %s at (%.2f, %.2f, %.2f)\n",
				seqA.FrameTime(i), label, a.Pose.T.X, a.Pose.T.Y, a.Pose.T.Z)
		}

		if i < bJoins {
			continue
		}
		j := i - bJoins
		rb, err := sessB.Handle(droneB.BuildUplink(j), 0)
		if err != nil {
			log.Fatal(err)
		}
		droneB.ApplyPose(j, rb.Pose, rb.Tracked)
		if rb.Merged {
			fmt.Printf("t=%4.1fs drone B's map merged — it now sees A's highlights:\n", seqA.FrameTime(i))
			// B's pose is now in the global frame, so anchor queries
			// against it are directly meaningful.
			for _, v := range anchors.VisibleFrom(rb.Pose.Inverse(), 50, 3.14) {
				fmt.Printf("         %s at (%.2f, %.2f, %.2f), %.1f m away\n",
					v.Anchor.Label, v.Anchor.Pose.T.X, v.Anchor.Pose.T.Y, v.Anchor.Pose.T.Z, v.Distance)
			}
		}
	}

	fmt.Printf("\nfinal: %d anchors in a %d-keyframe shared map\n",
		anchors.Len(), srv.GlobalMap().NKeyFrames())
	truthB := slamshare.GroundTruth(seqB, frames-bJoins, 1)
	fmt.Printf("drone B ATE after merge: %.3f m\n", slamshare.ATE(droneB.Trajectory(), truthB))
}
