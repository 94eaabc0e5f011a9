package chaos

import (
	"testing"

	"slamshare/internal/camera"
	"slamshare/internal/dataset"
)

// TestChaosScenarios runs the standard scenario matrix as table-driven
// cases: each scenario must meet its expectations AND leave the shared
// global map with zero invariant violations at every audited sync
// point. The whole suite is deterministic from the scenario seeds.
func TestChaosScenarios(t *testing.T) {
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res, err := Run(sc, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.Violations {
				t.Errorf("invariant violation: %s", v)
			}
			for _, f := range res.Failures {
				t.Errorf("expectation failed: %s", f)
			}
			t.Logf("%s: %d frames, %d poses (%d tracked), %d merges, %d reconnects, %d survivors, %d checks, %d KFs / %d MPs in %v",
				res.Scenario, res.FramesSent, res.Poses, res.Tracked, res.Merges,
				res.Reconnects, res.Survivors, res.Checks, res.KeyFrames, res.MapPoints,
				res.Elapsed)
		})
	}
}

// TestChaosDeterminism replays one fault scenario twice from the same
// seed and requires the scripted outcomes to match exactly: frames
// sent, survivors, reconnects and dropped sessions are functions of
// the script + seeds, never the wall clock.
func TestChaosDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a scenario twice")
	}
	sc := Scenarios()[1] // client-crash
	a, err := Run(sc, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if a.FramesSent != b.FramesSent || a.Survivors != b.Survivors ||
		a.Reconnects != b.Reconnects || a.Dropped != b.Dropped {
		t.Errorf("replay diverged: frames %d/%d, survivors %d/%d, reconnects %d/%d, dropped %d/%d",
			a.FramesSent, b.FramesSent, a.Survivors, b.Survivors,
			a.Reconnects, b.Reconnects, a.Dropped, b.Dropped)
	}
}

// TestHalfRes sanity-checks the scaled rig.
func TestHalfRes(t *testing.T) {
	full, err := dataset.ByName("MH04", camera.Stereo)
	if err != nil {
		t.Fatal(err)
	}
	half := dataset.HalfRes(full)
	if got, want := half.Rig.Intr.Width, full.Rig.Intr.Width/2; got != want {
		t.Errorf("width %d, want %d", got, want)
	}
	if got, want := half.Rig.Intr.Fx, full.Rig.Intr.Fx/2; got != want {
		t.Errorf("fx %v, want %v", got, want)
	}
	if half.Rig.Mode != camera.Stereo || half.Rig.Baseline != full.Rig.Baseline {
		t.Errorf("stereo rig not preserved: mode %v baseline %v", half.Rig.Mode, half.Rig.Baseline)
	}
	if half.World != full.World || half.Traj == nil {
		t.Error("world/trajectory not carried over")
	}
}
