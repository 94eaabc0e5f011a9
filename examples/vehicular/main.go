// Vehicular: the networked-vehicle scenario of Fig. 2 — a lead vehicle
// marks a road hazard in the shared map over a real TCP connection to
// the edge server (shaped with tc-style delay), and a following
// vehicle covering the same streets localizes in the merged map and
// sees the hazard mark. Demonstrates the networked (socket) API.
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"slamshare"
)

func main() {
	srv, err := slamshare.NewEdgeServer(slamshare.ServerOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l)
	fmt.Printf("edge server listening on %s\n", l.Addr())

	// KITTI-05 split: the lead vehicle drives the first third of the
	// route; the follower drives the same segment afterwards.
	full, _ := slamshare.LoadSequence("KITTI-05", slamshare.Stereo)
	segs := full.Split(3)
	lead, follower := segs[0], segs[0]

	drive := func(id uint32, seq *slamshare.Sequence, frames int, delay time.Duration) *slamshare.Device {
		raw, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			log.Fatal(err)
		}
		conn := slamshare.ShapeConn(raw, slamshare.NetemConfig{Delay: delay})
		dev := slamshare.NewDevice(id, seq)
		idxs := make([]int, frames)
		for i := range idxs {
			idxs[i] = i
		}
		// Run closes the connection it is handed.
		if err := dev.Run(slamshare.ConnDialer(conn), idxs, slamshare.RetryPolicy{}); err != nil {
			log.Fatalf("vehicle %d: %v", id, err)
		}
		return dev
	}

	const frames = 60
	fmt.Println("lead vehicle driving (marks hazard at frame 30)...")
	leadDev := drive(1, lead, frames, 5*time.Millisecond)
	leadTraj := leadDev.Trajectory()
	hazard := leadTraj[30].Pos // the mark, shared via the map's frame
	fmt.Printf("hazard marked at (%.1f, %.1f)\n", hazard.X, hazard.Y)

	fmt.Println("following vehicle driving the same street...")
	srv.CloseSession(1)
	followDev := drive(2, follower, frames, 5*time.Millisecond)

	// The follower localizes in the shared map, so the hazard
	// coordinates are directly meaningful to it: report its closest
	// approach.
	closest := 1e18
	for _, p := range followDev.Trajectory() {
		if d := p.Pos.Dist(hazard); d < closest {
			closest = d
		}
	}
	truth := slamshare.GroundTruth(follower, frames, 1)
	fmt.Printf("follower ATE: %.3f m\n", slamshare.ATE(followDev.Trajectory(), truth))
	fmt.Printf("follower's closest approach to the hazard mark: %.2f m\n", closest)
	fmt.Printf("shared map: %d keyframes\n", srv.GlobalMap().NKeyFrames())
}
