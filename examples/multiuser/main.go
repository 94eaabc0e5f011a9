// Multiuser: the paper's headline scenario (Fig. 1b). Two AR users
// explore the same machine hall from different starting origins; the
// edge server merges their maps into one shared global map, after
// which a hologram placed by one user appears at the same real-world
// position for the other.
package main

import (
	"fmt"
	"log"
	"time"

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

	sessA, err := srv.OpenSession(1, seqA.Rig)
	if err != nil {
		log.Fatal(err)
	}
	sessB, err := srv.OpenSession(2, seqB.Rig)
	if err != nil {
		log.Fatal(err)
	}

	// A founds the global frame; B starts in its own displaced local
	// frame (every real device has its own arbitrary origin).
	devA := slamshare.NewDevice(1, seqA)
	devB := slamshare.NewDisplacedDevice(2, seqB, 0.08, slamshare.Vec3{X: 0.6, Y: -0.4})

	const frames = 150
	const bJoins = 60 // B enters the session "shortly thereafter" (§1)
	mergedAt := -1
	for i := 0; i < frames; i++ {
		ra, err := sessA.Handle(devA.BuildUplink(i), 0)
		if err != nil {
			log.Fatal(err)
		}
		devA.ApplyPose(i, ra.Pose, ra.Tracked)

		if i < bJoins {
			continue
		}
		j := i - bJoins
		rb, err := sessB.Handle(devB.BuildUplink(j), 0)
		if err != nil {
			log.Fatal(err)
		}
		devB.ApplyPose(j, rb.Pose, rb.Tracked)
		if rb.Merged && mergedAt < 0 {
			mergedAt = i
			fmt.Printf("frame %d: B's map merged into the global map\n", i)
		}
	}

	for _, rep := range srv.MergeReports() {
		if rep.Alignment == nil {
			fmt.Printf("founding insert: %d keyframes in %v\n",
				rep.InsertKFs, rep.Total.Round(time.Millisecond))
			continue
		}
		fmt.Printf("map merge: %d keyframes aligned with %d inliers, %d duplicate points fused, total %v\n",
			rep.InsertKFs, rep.Alignment.Inliers, rep.FusedPts, rep.Total.Round(time.Millisecond))
	}

	truthA := slamshare.GroundTruth(seqA, frames, 1)
	truthB := slamshare.GroundTruth(seqB, frames-bJoins, 1)
	fmt.Printf("user A ATE: %.3f m\n", slamshare.ATE(devA.Trajectory(), truthA))
	// B's whole-run ATE includes the pre-merge segment, where its map
	// was still a separate displaced fragment (the spike of Fig. 10a);
	// after the merge its frame snaps into the global one.
	estB := devB.Trajectory()
	lastT := estB[len(estB)-1].T
	mergeT := seqB.FrameTime(mergedAt - bJoins)
	fmt.Printf("user B ATE before merge (own fragment): %.3f m\n",
		slamshare.ShortTermATE(estB, truthB, mergeT, mergeT))
	fmt.Printf("user B ATE after merge (shared map):    %.3f m\n",
		slamshare.ShortTermATE(estB, truthB, lastT, lastT-mergeT-0.1))
	fmt.Printf("shared global map: %d keyframes from both users\n", srv.GlobalMap().NKeyFrames())
}
