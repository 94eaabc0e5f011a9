package server

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"slamshare/internal/camera"
	"slamshare/internal/client"
	"slamshare/internal/dataset"
)

// updatePipeline rewrites testdata/pipeline_golden.txt from the code
// under test. The committed file was recorded on the commit before the
// one-valued options became constants; regenerate it only for a change
// that is meant to move poses, tracking decisions or the merged map.
var updatePipeline = flag.Bool("update-pipeline", false, "rewrite testdata/pipeline_golden.txt")

const (
	pipelineGoldenPath = "testdata/pipeline_golden.txt"
	// pipelineTol bounds what a float field may move. The pipeline is
	// not bit-reproducible: mapping and bundle adjustment accumulate
	// floats in map-iteration order, so two runs of one binary differ in
	// the last bits of every pose after the first keyframe (measured on
	// the recording commit: 4.5e-14 at most between four runs). Decisions —
	// tracked, merged, map sizes — repeat exactly and are compared as
	// text.
	pipelineTol = 1e-9
)

// pipelineGolden runs MH04 + MH05 through the direct API on the serial
// reference path (TrackWorkers < 0), 60 frames each, interleaved A0 B0
// A1 B1 …, and returns one line per thing a configuration change could
// move: every answered pose with its Tracked/Merged decision, the merge
// transforms, and the final size of the global map.
func pipelineGolden(t *testing.T) []string {
	cfg := DefaultConfig()
	cfg.TrackWorkers = -1
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	seqs := []*dataset.Sequence{dataset.MH04(camera.Stereo), dataset.MH05(camera.Stereo)}
	var sessions []*Session
	var clients []*client.Client
	for i, seq := range seqs {
		sess, err := srv.OpenSession(uint32(i+1), seq.Rig)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, sess)
		clients = append(clients, client.New(uint32(i+1), seq))
	}
	const n = 60
	var lines []string
	for i := 0; i < n; i++ {
		for c, sess := range sessions {
			res, err := sess.HandleFrame(clients[c].BuildFrame(i))
			if err != nil {
				t.Fatalf("client %d frame %d: %v", c+1, i, err)
			}
			clients[c].ApplyPose(i, res.Pose, res.Tracked)
			r, p := res.Pose.R, res.Pose.T
			lines = append(lines, fmt.Sprintf("pose c%d f%d tracked=%t merged=%t %.12g %.12g %.12g %.12g %.12g %.12g %.12g",
				c+1, i, res.Tracked, res.Merged, r.W, r.X, r.Y, r.Z, p.X, p.Y, p.Z))
		}
	}
	for i, rep := range srv.MergeReports() {
		if rep.Alignment == nil {
			lines = append(lines, fmt.Sprintf("merge m%d founding", i))
			continue
		}
		tf := rep.Alignment.Transform
		lines = append(lines, fmt.Sprintf("merge m%d aligned %.12g %.12g %.12g %.12g %.12g %.12g %.12g %.12g",
			i, tf.S, tf.R.W, tf.R.X, tf.R.Y, tf.R.Z, tf.T.X, tf.T.Y, tf.T.Z))
	}
	return append(lines, fmt.Sprintf("map keyframes=%d mappoints=%d",
		srv.Global().NKeyFrames(), srv.Global().NMapPoints()))
}

// sameGoldenLine compares two golden lines token by token: tokens that
// both parse as floats may differ by pipelineTol, anything else must
// match as text.
func sameGoldenLine(got, want string) bool {
	g, w := strings.Fields(got), strings.Fields(want)
	if len(g) != len(w) {
		return false
	}
	for i := range g {
		if g[i] == w[i] {
			continue
		}
		a, errA := strconv.ParseFloat(g[i], 64)
		b, errB := strconv.ParseFloat(w[i], 64)
		if errA != nil || errB != nil || math.Abs(a-b) > pipelineTol {
			return false
		}
	}
	return true
}

// TestPipelineGolden is the behaviour gate for changes that claim to
// leave the pipeline alone: no line of testdata/pipeline_golden.txt may
// move. A mismatch names the frame, so "the poses moved after the merge
// but the decisions did not" reads off the failure.
func TestPipelineGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full system test")
	}
	got := pipelineGolden(t)
	if *updatePipeline {
		body := "# MH04 + MH05, 60 frames each; see golden_test.go. Recorded with -update-pipeline.\n" +
			strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(pipelineGoldenPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(pipelineGoldenPath)
	if err != nil {
		t.Fatalf("golden file: %v (record it with -update-pipeline on a known-good commit)", err)
	}
	var want []string
	for _, line := range strings.Split(string(data), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d lines, run produced %d", len(want), len(got))
	}
	moved := 0
	for i := range got {
		if !sameGoldenLine(got[i], want[i]) {
			if moved++; moved <= 5 {
				t.Errorf("moved:\n got  %s\n want %s", got[i], want[i])
			}
		}
	}
	if moved > 5 {
		t.Errorf("… and %d more lines", moved-5)
	}
}
