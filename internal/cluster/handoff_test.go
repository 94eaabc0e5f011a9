package cluster

import (
	"fmt"
	"net"
	"testing"
	"time"

	"slamshare/internal/camera"
	"slamshare/internal/client"
	"slamshare/internal/dataset"
	"slamshare/internal/geom"
	"slamshare/internal/offload"
	"slamshare/internal/overload"
	"slamshare/internal/protocol"
	"slamshare/internal/server"
)

const testToken = 0xC0FFEE

// startShard serves a cluster shard on ln: the half-resolution tuning
// with the urban profile (cluster tests drive city routes) plus the
// shard identity.
func startShard(t testing.TB, id uint32, ln net.Listener) *server.Server {
	t.Helper()
	cfg := HalfResConfig(true)
	cfg.Shard = server.ShardConfig{ID: id, Token: testToken}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return srv
}

// testCluster is an in-process 2-shard cluster behind a front.
type testCluster struct {
	shards []*server.Server
	addrs  []string
	front  *Front
	addr   string // front address devices dial
	lns    []net.Listener
}

func startCluster(t testing.TB, nShards int, part Partition) *testCluster {
	t.Helper()
	tc := &testCluster{}
	for i := 0; i < nShards; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := startShard(t, uint32(i), ln)
		tc.shards = append(tc.shards, srv)
		tc.addrs = append(tc.addrs, ln.Addr().String())
		tc.lns = append(tc.lns, ln)
	}
	tc.front = NewFront(FrontConfig{
		Shards:          tc.addrs,
		Token:           testToken,
		Part:            part,
		HandoffCooldown: 200 * time.Millisecond,
	})
	fln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tc.addr = fln.Addr().String()
	go tc.front.Serve(fln)
	t.Cleanup(func() {
		tc.front.Close()
		for i, srv := range tc.shards {
			tc.lns[i].Close()
			srv.Close()
		}
	})
	return tc
}

// waitSessions polls until every shard has drained to zero sessions
// (session teardown is asynchronous with connection death).
func (tc *testCluster) waitSessions(t testing.TB) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		n := 0
		for _, srv := range tc.shards {
			n += srv.NSessions()
		}
		if n == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("shard sessions did not drain")
}

// strideFrames is the frame index list of an n-frame walk.
func strideFrames(n, stride int) []int {
	frames := make([]int, n)
	for i := range frames {
		frames[i] = i * stride
	}
	return frames
}

// TestOwnershipHandoff walks scripted sessions across (or along) the
// shard boundary and asserts the handoff contract: every frame
// answered exactly once, no teleporting poses, handoff epochs strictly
// increasing, committed handoffs matching the trajectory, anchors
// following the session, and the cluster invariants clean at the final
// quiescent point.
func TestOwnershipHandoff(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster handoff walk is seconds-long")
	}
	// Boundary at x = 90 m. The walks run at the urban profile the
	// chaos tier is tuned for (7 m/s, stride 4 → ~0.93 m between
	// tracked frames); larger strides lose visual tracking and the
	// session falls back to dead-reckoned priors.
	part := Partition{Min: 0, Max: 180, N: 2, Hysteresis: 5}
	cases := []struct {
		name   string
		route  [][2]int
		seed   int64
		rounds int
		stride int
		// wantCrossings is the exact committed-handoff count; wantShard
		// the shard that must own the session at the end.
		wantCrossings int
		wantShard     uint32
		// split runs the device in split offload: keypoint uplinks,
		// routed by their prior like video frames.
		split bool
	}{
		// x runs 60 -> 180: crosses the 90 m boundary once (~round 38).
		{name: "cross-once", route: [][2]int{{1, 1}, {3, 1}}, seed: 901,
			rounds: 70, stride: 4, wantCrossings: 1, wantShard: 1},
		{name: "cross-once-split", route: [][2]int{{1, 1}, {3, 1}}, seed: 901,
			rounds: 70, stride: 4, wantCrossings: 1, wantShard: 1, split: true},
		// A loop around a city block: x runs 60 -> 120, holds while the
		// route turns two corners, then returns 120 -> 60. Out and back
		// across the boundary with right-angle turns only — a straight
		// U-turn cannot keep visual tracking (the return view shares no
		// features with the outbound keyframes).
		{name: "cross-twice", route: [][2]int{{1, 1}, {2, 1}, {2, 2}, {1, 2}, {1, 1}}, seed: 902,
			rounds: 190, stride: 4, wantCrossings: 2, wantShard: 0},
		// x stays within shard 0's slab: no handoff at all.
		{name: "no-cross", route: [][2]int{{0, 1}, {1, 1}}, seed: 903,
			rounds: 30, stride: 4, wantCrossings: 0, wantShard: 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			clu := startCluster(t, 2, part)
			const clientID = 7
			seq := dataset.HalfRes(dataset.CityRoute("handoff-"+tc.name, tc.route, 7, camera.Stereo, tc.seed))

			// An anchor placed on the session's first shard must follow
			// the session across the boundary.
			home := part.Shard(60) // routes start at x=60 (or inside slab 0)
			anchorPose := geom.SE3{R: geom.IdentityQuat(), T: geom.Vec3{X: 61, Y: 1, Z: 1.5}}
			anchorID := clu.shards[home].Anchors().Place("poster", anchorPose, clientID, 1.0)

			// Continuity: a tracked pose must land near the client's own
			// world-frame estimate of that frame — a handoff must not
			// teleport the session (the shards share one world frame). In
			// a closed loop the answered frame is the newest one built.
			cl := client.New(clientID, seq)
			if tc.split {
				cl.EnableAdaptive(offload.QoSHandheld, offload.CapSplit)
				cl.ForceMode(offload.ModeSplit)
			}
			tracked, wildPoses := 0, 0
			cl.OnAnswer = func(pm *protocol.PoseMsg) {
				if pm.Tracked && !pm.Shed {
					tracked++
					live := cl.LiveTrajectory()
					if pm.Pose.Inverse().T.Dist(live[len(live)-1].Pos) > 20 {
						wildPoses++
					}
				}
			}
			if err := cl.Run(client.AddrDialer(clu.addr), strideFrames(tc.rounds, tc.stride), overload.Backoff{MaxAttempts: 1}); err != nil {
				t.Fatal(err)
			}
			clu.waitSessions(t)

			// Every sent frame answered exactly once, nothing invented.
			counts := cl.AnswerCounts()
			if len(counts) != tc.rounds {
				t.Errorf("%d distinct frames answered, sent %d", len(counts), tc.rounds)
			}
			for idx, n := range counts {
				if n != 1 {
					t.Errorf("frame %d answered %d times", idx, n)
				}
			}
			if tracked == 0 {
				t.Fatal("no tracked poses at all")
			}
			if wildPoses > 0 {
				t.Errorf("%d tracked poses broke the 20 m continuity bound", wildPoses)
			}

			// Handoff log: per-session epochs strictly increasing, the
			// committed crossings match the trajectory.
			events := clu.front.Events()
			var lastEpoch uint64
			committed := 0
			cur := home
			for _, ev := range events {
				if ev.Client != clientID {
					t.Errorf("handoff event for unknown client %d", ev.Client)
				}
				if ev.Epoch <= lastEpoch {
					t.Errorf("handoff epoch %d not strictly increasing (prev %d)", ev.Epoch, lastEpoch)
				}
				lastEpoch = ev.Epoch
				if ev.Committed {
					committed++
					if ev.From != cur {
						t.Errorf("handoff from shard %d, session was on %d", ev.From, cur)
					}
					cur = ev.To
				}
			}
			if committed != tc.wantCrossings {
				t.Errorf("%d committed handoffs, want %d (events: %+v)", committed, tc.wantCrossings, events)
			}
			if cur != tc.wantShard {
				t.Errorf("session ended on shard %d, want %d", cur, tc.wantShard)
			}

			// The anchor followed the session: whichever shard owns the
			// session now must hold the anchor at the exact same pose.
			if a, ok := clu.shards[cur].Anchors().Get(anchorID); !ok {
				t.Errorf("anchor %d missing on final shard %d", anchorID, cur)
			} else if got := a.Pose.T; got.Dist(anchorPose.T) > 1e-9 {
				t.Errorf("anchor %d pose drifted: %+v", anchorID, got)
			}

			// Cluster invariants at the quiescent end state: per-shard
			// map invariants plus cross-shard ownership disjointness.
			rep, err := CheckCluster(clu.addrs, testToken)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Errorf("cluster invariants: %s", describe(rep))
			}
			// A committed crossing must actually have moved map material.
			if tc.wantCrossings > 0 && rep.Shards[tc.wantShard].KeyFrames == 0 {
				t.Errorf("shard %d owns the session but no keyframes", tc.wantShard)
			}
		})
	}
}

func describe(rep *ClusterReport) string {
	s := rep.Summary()
	for _, v := range rep.Violations {
		s += "\n  cross-shard: " + v
	}
	for _, sh := range rep.Shards {
		for _, v := range sh.Violations {
			s += fmt.Sprintf("\n  shard %d: %s", sh.ID, v)
		}
	}
	return s
}

// TestPartitionHysteresis pins the routing function's boundary
// behaviour: inside the band the session stays put, past it the
// session moves, and positions clamp to the edge slabs.
func TestPartitionHysteresis(t *testing.T) {
	p := Partition{Min: 0, Max: 240, N: 2, Hysteresis: 5}
	cases := []struct {
		cur  uint32
		x    float64
		want uint32
	}{
		{0, 0, 0}, {0, 119, 0}, {0, 121, 0}, {0, 124.9, 0}, // inside the band
		{0, 125.1, 1}, {0, 240, 1}, {0, 500, 1}, // past it (and clamped)
		{1, 121, 1}, {1, 115.1, 1}, {1, 114.9, 0}, // symmetric on the way back
		{1, -50, 0}, // clamped low
	}
	for _, tc := range cases {
		if got := p.ShardFrom(tc.cur, tc.x); got != tc.want {
			t.Errorf("ShardFrom(%d, %v) = %d, want %d", tc.cur, tc.x, got, tc.want)
		}
	}
	if p.Shard(-10) != 0 || p.Shard(250) != 1 || p.Shard(60) != 0 || p.Shard(130) != 1 {
		t.Error("Shard() clamping or slab mapping wrong")
	}
	one := Partition{Min: 0, Max: 240, N: 1}
	if one.Shard(9000) != 0 || one.ShardFrom(0, 9000) != 0 {
		t.Error("single-shard partition must pin everything to shard 0")
	}
}
