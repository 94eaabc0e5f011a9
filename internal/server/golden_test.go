package server

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"slamshare/internal/camera"
	"slamshare/internal/client"
	"slamshare/internal/dataset"
)

// updatePipeline rewrites testdata/pipeline_golden.txt from the code
// under test; the file's header says which commit recorded it.
// Regenerate it only for a change that is meant to move poses, tracking
// decisions or the merged map.
var updatePipeline = flag.Bool("update-pipeline", false, "rewrite testdata/pipeline_golden.txt")

const pipelineGoldenPath = "testdata/pipeline_golden.txt"

// goldenLine is one line of the pipeline golden: a label that carries
// the decisions (tracked, merged, sizes) and the floats that go with
// it. String prints each float with %v — the shortest decimal that
// parses back to the same float64 — so equal text is equal bits.
type goldenLine struct {
	label string
	vals  []float64
}

func (l goldenLine) String() string {
	s := l.label
	for _, v := range l.vals {
		s += fmt.Sprintf(" %v", v)
	}
	return s
}

// pipelineGolden runs MH04 + MH05 through the direct API — on the
// serial reference path for trackWorkers < 0, else through a pool of
// that many workers — 60 frames each, interleaved A0 B0 A1 B1 …, and
// returns one line per thing a change could move: every answered pose
// with its Tracked/Merged decision, the merge transforms, and the final
// size of the global map.
func pipelineGolden(t *testing.T, trackWorkers int) []goldenLine {
	cfg := DefaultConfig()
	cfg.TrackWorkers = trackWorkers
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
	var lines []goldenLine
	for i := 0; i < n; i++ {
		for c, sess := range sessions {
			res, err := sess.HandleFrame(clients[c].BuildFrame(i))
			if err != nil {
				t.Fatalf("client %d frame %d: %v", c+1, i, err)
			}
			clients[c].ApplyPose(i, res.Pose, res.Tracked)
			r, p := res.Pose.R, res.Pose.T
			lines = append(lines, goldenLine{
				fmt.Sprintf("pose c%d f%d tracked=%t merged=%t", c+1, i, res.Tracked, res.Merged),
				[]float64{r.W, r.X, r.Y, r.Z, p.X, p.Y, p.Z}})
		}
	}
	for i, rep := range srv.MergeReports() {
		if rep.Alignment == nil {
			lines = append(lines, goldenLine{label: fmt.Sprintf("merge m%d founding", i)})
			continue
		}
		tf := rep.Alignment.Transform
		lines = append(lines, goldenLine{fmt.Sprintf("merge m%d aligned", i),
			[]float64{tf.S, tf.R.W, tf.R.X, tf.R.Y, tf.R.Z, tf.T.X, tf.T.Y, tf.T.Z}})
	}
	return append(lines, goldenLine{label: fmt.Sprintf("map keyframes=%d mappoints=%d",
		srv.Global().NKeyFrames(), srv.Global().NMapPoints())})
}

// TestPipelineReproducible pins DESIGN §13's rule from the outside: the
// whole pipeline — tracking, mapping, local BA, merge, seam BA,
// essential graph — repeats bit for bit, serial path against serial
// path and against the pooled path. One Go map ranged into a float sum
// or a bounded choice anywhere on that path shows up here as last-bit
// differences from the first keyframe on.
func TestPipelineReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("full system test")
	}
	ref := pipelineGolden(t, -1)
	for _, run := range []struct {
		name    string
		workers int
	}{{"serial again", -1}, {"pool of 2", 2}} {
		got := pipelineGolden(t, run.workers)
		if len(got) != len(ref) {
			t.Fatalf("%s: %d lines, first serial run %d", run.name, len(got), len(ref))
		}
		moved := 0
		for i := range got {
			same := got[i].label == ref[i].label && len(got[i].vals) == len(ref[i].vals)
			for k := 0; same && k < len(got[i].vals); k++ {
				same = math.Float64bits(got[i].vals[k]) == math.Float64bits(ref[i].vals[k])
			}
			if !same {
				if moved++; moved <= 3 {
					t.Errorf("%s differs from the first serial run:\n got  %s\n want %s", run.name, got[i], ref[i])
				}
			}
		}
		if moved > 3 {
			t.Errorf("%s: %d of %d lines differ", run.name, moved, len(got))
		}
	}
}

// TestPipelineGolden is the behaviour gate for changes that claim to
// leave the pipeline alone: no line of testdata/pipeline_golden.txt may
// move. A mismatch names the frame, so "the poses moved after the merge
// but the decisions did not" reads off the failure.
func TestPipelineGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full system test")
	}
	var got []string
	for _, l := range pipelineGolden(t, -1) {
		got = append(got, l.String())
	}
	if *updatePipeline {
		body := "# MH04 + MH05, 60 frames each; see golden_test.go. Recorded with -update-pipeline:\n" +
			"# say here which commit recorded it and what entitled the lines to move.\n" +
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
		if got[i] != want[i] {
			if moved++; moved <= 5 {
				t.Errorf("moved:\n got  %s\n want %s", got[i], want[i])
			}
		}
	}
	if moved > 5 {
		t.Errorf("… and %d more lines", moved-5)
	}
}
