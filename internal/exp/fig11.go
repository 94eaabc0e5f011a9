package exp

import (
	"fmt"
	"io"

	"slamshare/internal/camera"
	"slamshare/internal/client"
	"slamshare/internal/dataset"
	"slamshare/internal/geom"
	"slamshare/internal/server"
)

// Fig11Result reports the hologram positions perceived by each user.
type Fig11Result struct {
	Truth        geom.Vec3 // where B actually placed the hologram
	BPerceived   geom.Vec3 // B's estimate of the hologram position
	CNoSharing   geom.Vec3 // C's estimate without map merging
	CWithSharing geom.Vec3 // C's estimate with SLAM-Share
	ErrNoShare   float64
	ErrShare     float64
	ErrB         float64
}

// Fig11 reproduces the hologram-consistency experiment: user B places
// a hologram 2 m in front of itself mid-run; user C, whose map frame
// is displaced from B's, later views it. Without merging, C interprets
// the hologram coordinates in its own frame and misplaces it by the
// inter-origin offset; with SLAM-Share the merge aligns the frames and
// both users agree to within the tracking error.
func Fig11(w io.Writer) (*Fig11Result, error) {
	seqB := dataset.MH04(camera.Stereo)
	seqC := dataset.MH05(camera.Stereo)
	// C's local frame is displaced by ~6.9 m, the paper's observed
	// inter-origin error.
	displacement := geom.SE3{
		R: geom.QuatFromAxisAngle(geom.Vec3{Z: 1}, 0.4),
		T: geom.Vec3{X: 5.5, Y: -4.2, Z: 0.0},
	}
	const stride = 2
	b := &Participant{Name: "B", Seq: seqB, Stride: stride}
	c := &Participant{Name: "C", Dev: client.NewDisplaced(2, seqC, 0.4, displacement.T), Seq: seqC, Stride: stride}
	r, err := NewRunner(server.DefaultConfig(), stride/seqB.FPS, b, c)
	if err != nil {
		return nil, err
	}
	defer r.Close()

	res := &Fig11Result{}
	n := scale(200)
	placeAt := n / 3
	var hologramShared geom.Vec3 // the only information exchanged
	placed := false
	r.OnStep = func(step int, _ float64) bool {
		if i := step * stride; !placed && i >= placeAt {
			// B places a hologram 2 m ahead of its current estimated
			// pose. The true position uses ground truth; B's shared
			// coordinates use its estimate (they differ by B's ATE).
			res.Truth = seqB.GroundTruth(i).Apply(geom.Vec3{Z: 2})
			hologramShared = b.Last.Pose.Inverse().Apply(geom.Vec3{Z: 2})
			res.BPerceived = hologramShared
			placed = true
		}
		return false
	}
	if err := r.Run(n / stride); err != nil {
		return nil, err
	}
	// Without sharing, C assumes its own origin coincides with B's:
	// the coordinates land in C's displaced frame.
	res.CNoSharing = displacement.Apply(hologramShared)
	// With SLAM-Share, C's frame was merged into the global frame, so
	// the shared coordinates are directly valid in C's corrected frame.
	res.CWithSharing = hologramShared

	res.ErrB = res.BPerceived.Dist(res.Truth)
	res.ErrNoShare = res.CNoSharing.Dist(res.Truth)
	res.ErrShare = res.CWithSharing.Dist(res.Truth)

	fmt.Fprintln(w, "Fig 11: hologram position as perceived by each user")
	tablef(w, "%-28s (%7.2f, %7.2f, %7.2f)", "ground truth", res.Truth.X, res.Truth.Y, res.Truth.Z)
	tablef(w, "%-28s (%7.2f, %7.2f, %7.2f)  err %.3f m", "user B (placer)",
		res.BPerceived.X, res.BPerceived.Y, res.BPerceived.Z, res.ErrB)
	tablef(w, "%-28s (%7.2f, %7.2f, %7.2f)  err %.3f m", "user C without sharing",
		res.CNoSharing.X, res.CNoSharing.Y, res.CNoSharing.Z, res.ErrNoShare)
	tablef(w, "%-28s (%7.2f, %7.2f, %7.2f)  err %.3f m", "user C with SLAM-Share",
		res.CWithSharing.X, res.CWithSharing.Y, res.CWithSharing.Z, res.ErrShare)
	return res, nil
}
