package chaos

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"slamshare/internal/camera"
	"slamshare/internal/dataset"
	"slamshare/internal/lifecycle"
	"slamshare/internal/netem"
)

// Scenarios returns the standard chaos matrix: every fault class the
// acceptance criteria name, each deterministic from its seed. The
// chaos tests run them as table-driven cases and `experiments chaos`
// prints the survival/invariant summary.
func Scenarios() []Scenario {
	link := netem.DelayOnly(2 * time.Millisecond)
	return []Scenario{
		{
			// Churn baseline: clients join at staggered rounds, both
			// merge into one global map, nothing goes wrong.
			Name: "staggered-join", Seed: 1, Rounds: 22, Stride: 4, CheckEvery: 8,
			Clients: []ClientScript{
				{ID: 1, JoinRound: 0, Shape: link},
				{ID: 2, JoinRound: 4, Shape: link},
			},
			Expect: Expect{Survivors: 2, MinMerges: 2},
		},
		{
			// A client dies mid-stream (link cut, no Bye) after its map
			// merged; the global map must stay sound without it.
			Name: "client-crash", Seed: 2, Rounds: 22, Stride: 4, CheckEvery: 8,
			Clients: []ClientScript{
				{ID: 1, JoinRound: 0, Shape: link},
				{ID: 2, JoinRound: 2, CrashAt: 16, Shape: link},
			},
			Expect: Expect{Survivors: 1, MinMerges: 2, MinDropped: 1},
		},
		{
			// Crash then reconnect with the same ID: the server resumes
			// the session on the global map and the tracker relocalizes.
			Name: "reconnect-resume", Seed: 3, Rounds: 30, Stride: 4, CheckEvery: 10,
			Clients: []ClientScript{
				{ID: 1, JoinRound: 0, Shape: link},
				{ID: 2, JoinRound: 2, CrashAt: 14, ReconnectAt: 18, Shape: link},
			},
			Expect: Expect{Survivors: 2, MinMerges: 2, MinReconnects: 1,
				ResumedTracking: true, MinDropped: 1},
		},
		{
			// The server is killed after merges are journaled but never
			// checkpointed, recovers from the WAL alone, and both
			// clients resume on the recovered map.
			Name: "server-kill-recovery", Seed: 4, Rounds: 30, Stride: 4,
			KillServerAt: 16, CheckEvery: 10,
			Clients: []ClientScript{
				{ID: 1, JoinRound: 0, AutoReconnect: true, Shape: link},
				{ID: 2, JoinRound: 2, AutoReconnect: true, Shape: link},
			},
			Expect: Expect{Survivors: 2, MinMerges: 2, MinReconnects: 2,
				ResumedTracking: true},
		},
		{
			// Transient partition: the link freezes for three rounds and
			// thaws; the client misses those rounds but survives on the
			// same connection.
			Name: "partition-stall", Seed: 5, Rounds: 24, Stride: 4, CheckEvery: 8,
			Clients: []ClientScript{
				{ID: 1, JoinRound: 0, Shape: link},
				{ID: 2, JoinRound: 2, FreezeAt: 12, ThawAt: 15, Shape: link},
			},
			Expect: Expect{Survivors: 2, MinMerges: 2},
		},
		{
			// Corrupt frame stream: an undecodable payload must be
			// counted, the connection dropped, and the client readmitted
			// on reconnect.
			Name: "corrupt-stream", Seed: 6, Rounds: 26, Stride: 4, CheckEvery: 8,
			Clients: []ClientScript{
				{ID: 1, JoinRound: 0, Shape: link},
				{ID: 2, JoinRound: 2, CorruptAt: 12, ReconnectAt: 15, Shape: link},
			},
			Expect: Expect{Survivors: 2, MinMerges: 2, MinReconnects: 1,
				MinFramesRejected: 1, MinDropped: 1},
		},
		{
			// Duplicate hello mid-session: the regression for the
			// serveConn session leak — rejected, dropped, reusable.
			Name: "duplicate-hello", Seed: 7, Rounds: 24, Stride: 4, CheckEvery: 8,
			Clients: []ClientScript{
				{ID: 1, JoinRound: 0, Shape: link},
				{ID: 2, JoinRound: 2, DupHelloAt: 12, ReconnectAt: 15, Shape: link},
			},
			Expect: Expect{Survivors: 2, MinMerges: 2, MinReconnects: 1,
				MinDupHello: 1, MinDropped: 1},
		},
		{
			// City-grid fleet under a map budget: three vehicles leave a
			// shared depot block (guaranteed merge overlap) and diverge,
			// the lifecycle manager culls the over-budget map and evicts
			// the streets everyone has left behind, and the server is
			// killed mid-run — recovery must replay the compacted map
			// from the WAL, restore the evicted-region index, and resume
			// every returning client by relocalization.
			Name: "city-lifecycle-kill", Seed: 9, Rounds: 52, Stride: 4,
			KillServerAt: 34, CheckEvery: 13, Urban: true,
			Lifecycle: lifecycle.Config{MaxKeyFrames: 12, EvictAfter: 30},
			Clients: []ClientScript{
				{ID: 1, AutoReconnect: true, Shape: link,
					Seq: dataset.CityRoute("chaos-veh1", [][2]int{{0, 2}, {1, 2}, {2, 2}}, 7, camera.Stereo, 301)},
				{ID: 2, AutoReconnect: true, Shape: link,
					Seq: dataset.CityRoute("chaos-veh2", [][2]int{{0, 2}, {1, 2}, {1, 3}}, 7, camera.Stereo, 302)},
				{ID: 3, AutoReconnect: true, Shape: link,
					Seq: dataset.CityRoute("chaos-veh3", [][2]int{{0, 2}, {1, 2}, {1, 1}}, 7, camera.Stereo, 303)},
			},
			Expect: Expect{Survivors: 3, MinMerges: 3, MinReconnects: 3,
				ResumedTracking: true, MinEvictions: 1},
		},
		{
			// Flaky link: the connection dies mid-message after 572 KiB
			// of uplink, 4 KiB into the 25th of the client's 26 frames,
			// and the client auto-reconnects. (700 KiB cut the same
			// frame when inter frames were DEFLATE-coded.)
			Name: "flaky-resets", Seed: 8, Rounds: 26, Stride: 4, CheckEvery: 8,
			Clients: []ClientScript{
				{ID: 1, JoinRound: 0, Shape: link},
				{ID: 2, JoinRound: 0, AutoReconnect: true,
					Fault: netem.FaultConfig{ResetAfterBytes: 572 << 10}},
			},
			Expect: Expect{Survivors: 2, MinMerges: 2, MinReconnects: 1, MinDropped: 1},
		},
	}
}

// RunAll executes the full scenario matrix and prints the
// survival/invariant summary table. It returns an error if any
// scenario failed its expectations or reported invariant violations.
func RunAll(w io.Writer, full bool) error {
	dir, err := os.MkdirTemp("", "slamshare-chaos-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	fmt.Fprintf(w, "Chaos scenario matrix (deterministic seeds, half-resolution rigs)\n")
	fmt.Fprintf(w, "%-22s %6s %6s %6s %6s %5s %5s %6s %6s %8s  %s\n",
		"scenario", "frames", "poses", "merges", "reconn", "surv", "chks", "KFs", "MPs", "elapsed", "verdict")
	failed := 0
	for _, sc := range Scenarios() {
		res, err := Run(sc, filepath.Join(dir, sc.Name))
		if err != nil {
			fmt.Fprintf(w, "%-22s %s\n", sc.Name, err)
			failed++
			continue
		}
		verdict := "ok"
		if len(res.Violations) > 0 {
			verdict = fmt.Sprintf("%d INVARIANT VIOLATIONS", len(res.Violations))
		} else if len(res.Failures) > 0 {
			verdict = "FAILED: " + res.Failures[0]
		}
		fmt.Fprintf(w, "%-22s %6d %6d %6d %6d %5d %5d %6d %6d %8s  %s\n",
			res.Scenario, res.FramesSent, res.Poses, res.Merges, res.Reconnects,
			res.Survivors, res.Checks, res.KeyFrames, res.MapPoints,
			res.Elapsed.Round(time.Millisecond), verdict)
		for _, v := range res.Violations {
			fmt.Fprintf(w, "    violation: %s\n", v)
		}
		if !res.OK() {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("chaos: %d scenario(s) failed", failed)
	}
	return nil
}
