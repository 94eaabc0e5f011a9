package server

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"slamshare/internal/camera"
	"slamshare/internal/client"
	"slamshare/internal/dataset"
	"slamshare/internal/persist"
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

// goldenFrames is how many frames of each sequence the golden run
// interleaves.
const goldenFrames = 60

// goldenSessions opens the golden run: a server on the serial reference
// path for trackWorkers < 0, else with a pool of that many workers,
// journaling into journalDir unless it is empty, and an MH04 and an
// MH05 session with their clients. The caller closes the server.
func goldenSessions(t *testing.T, trackWorkers int, journalDir string) (*Server, []*Session, []*client.Client) {
	cfg := DefaultConfig()
	cfg.TrackWorkers = trackWorkers
	cfg.Persist = persist.Options{Dir: journalDir, CheckpointEvery: -1}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sessions []*Session
	var clients []*client.Client
	for i, seq := range []*dataset.Sequence{dataset.MH04(camera.Stereo), dataset.MH05(camera.Stereo)} {
		sess, err := srv.OpenSession(uint32(i+1), seq.Rig)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, sess)
		clients = append(clients, client.New(uint32(i+1), seq))
	}
	return srv, sessions, clients
}

// pipelineGolden runs the golden sessions through the direct API,
// goldenFrames each, interleaved A0 B0 A1 B1 …, and returns one line per
// thing a change could move: every answered pose with its Tracked/Merged
// decision, the merge transforms, and the final size of the global map.
// It also returns the files of the server's journal directory by name.
func pipelineGolden(t *testing.T, trackWorkers int) ([]goldenLine, map[string][]byte) {
	dir := t.TempDir()
	srv, sessions, clients := goldenSessions(t, trackWorkers, dir)
	defer srv.Close()
	var lines []goldenLine
	for i := 0; i < goldenFrames; i++ {
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
	lines = append(lines, goldenLine{label: fmt.Sprintf("map keyframes=%d mappoints=%d",
		srv.Global().NKeyFrames(), srv.Global().NMapPoints())})
	if err := srv.Persist().Flush(); err != nil {
		t.Fatal(err)
	}
	if srv.Persist().Stats().JournalRecords.Load() == 0 {
		t.Fatal("the golden run journaled nothing")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return lines, files
}

// TestPipelineReproducible pins DESIGN §4's rule from the outside: the
// whole pipeline — tracking, mapping, local BA, merge, seam BA,
// essential graph — repeats bit for bit, serial path against serial
// path and against the pooled path. One Go map ranged into a float sum
// or a bounded choice anywhere on that path shows up here as last-bit
// differences from the first keyframe on; one ranged into the order of
// the map's mutations shows up as journals that differ.
func TestPipelineReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("full system test")
	}
	ref, refJournal := pipelineGolden(t, -1)
	for _, run := range []struct {
		name    string
		workers int
	}{{"serial again", -1}, {"pool of 2", 2}} {
		got, journal := pipelineGolden(t, run.workers)
		if len(journal) != len(refJournal) {
			t.Errorf("%s: %d journal files, first serial run %d", run.name, len(journal), len(refJournal))
		}
		for name, want := range refJournal {
			b := journal[name]
			i := 0
			for i < len(b) && i < len(want) && b[i] == want[i] {
				i++
			}
			if i < len(b) || i < len(want) {
				t.Errorf("%s: %s differs from the first serial run's from byte %d (%d vs %d bytes)", run.name, name, i, len(b), len(want))
			}
		}
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
	lines, _ := pipelineGolden(t, -1)
	for _, l := range lines {
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

// TestMergedPriorStaysOnTrack drives the pipeline golden's run and
// checks the IMU prior of the first frame after each aligned merge: the
// merge moves the session's whole motion model into global coordinates,
// so that prior lands within 5 cm of the pose tracking settles on. A
// model whose newest pose alone was moved fits its next velocity across
// the frame change and misses by the merge's displacement over one step.
func TestMergedPriorStaysOnTrack(t *testing.T) {
	if testing.Short() {
		t.Skip("full system test")
	}
	srv, sessions, clients := goldenSessions(t, -1, "")
	defer srv.Close()
	afterMerge := make([]bool, len(sessions))
	checked := 0
	for i := 0; i < goldenFrames; i++ {
		for c, sess := range sessions {
			msg := clients[c].BuildFrame(i)
			var res Result
			var err error
			if afterMerge[c] {
				// HandleFrame, with the prior kept for the check.
				srv.global.Tick()
				left, err := sess.decL.Decode(msg.Video)
				if err != nil {
					t.Fatal(err)
				}
				right, err := sess.decR.Decode(msg.VideoRight)
				if err != nil {
					t.Fatal(err)
				}
				prior := sess.advance(msg.Delta, msg.HasPrior, msg.Prior)
				res = sess.completeFrame(sess.tracker.ProcessFrame(left, right, msg.Stamp, prior))
				if !res.Tracked {
					t.Fatalf("c%d f%d: not tracked after the merge", c+1, i)
				}
				if miss := prior.Inverse().T.Dist(res.Pose.Inverse().T); miss > 0.05 {
					t.Errorf("c%d f%d: first prior after the merge is %.2f cm off the tracked pose, want ≤ 5", c+1, i, 100*miss)
				}
				afterMerge[c] = false
				checked++
			} else if res, err = sess.HandleFrame(msg); err != nil {
				t.Fatal(err)
			}
			clients[c].ApplyPose(i, res.Pose, res.Tracked)
			if res.Merged {
				reps := srv.MergeReports()
				afterMerge[c] = reps[len(reps)-1].Alignment != nil
			}
		}
	}
	if checked == 0 {
		t.Fatal("no aligned merge in the run")
	}
}
