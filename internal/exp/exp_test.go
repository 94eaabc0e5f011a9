package exp

import (
	"bytes"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"slamshare/internal/camera"
	"slamshare/internal/dataset"
	"slamshare/internal/server"
)

func init() { Quick = true }

func TestLinkRTTFrames(t *testing.T) {
	if (Link{}).RTTFrames(0.033) != 0 {
		t.Error("zero delay should give zero lag")
	}
	// 150 ms each way at 30 FPS = ceil(0.3/0.0333) = 10 frames.
	if got := (Link{DelaySec: 0.15}).RTTFrames(1.0 / 30); got != 9 && got != 10 {
		t.Errorf("RTTFrames = %d", got)
	}
}

func TestScaleQuick(t *testing.T) {
	if s := scale(300); s != 100 {
		t.Errorf("scale(300) = %d in quick mode", s)
	}
	if s := scale(60); s != 30 {
		t.Errorf("scale floor = %d", s)
	}
}

func TestAllIDsRun(t *testing.T) {
	if len(All()) != 18 {
		t.Errorf("experiment count = %d", len(All()))
	}
	if err := Run(io.Discard, "nope", false); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestExperimentsIndexListsAll requires EXPERIMENTS.md's index to have
// exactly one row per id All returns, and no row for an id Run does
// not know.
func TestExperimentsIndexListsAll(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, index, ok := strings.Cut(string(doc), "\n## Index")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no \"## Index\" section")
	}
	index, _, _ = strings.Cut(index, "\n## ")
	rows := map[string]int{}
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z0-9]+)` \\|").FindAllStringSubmatch(index, -1) {
		rows[m[1]]++
	}
	for _, id := range All() {
		if rows[id] != 1 {
			t.Errorf("EXPERIMENTS.md index has %d rows for %q, want 1", rows[id], id)
		}
		delete(rows, id)
	}
	for id := range rows {
		t.Errorf("EXPERIMENTS.md index lists %q, which exp.All does not return", id)
	}
}

// TestFig8ModeledGPUBeatsCPU turns Fig. 8's shape claim into an
// assertion: on every configuration the tracker with the simulated
// device attached reports a lower (modeled) total than the CPU tracker
// beside it. It is the one place modeled time is still reported, so it
// also guards the device ledger the conversion reads.
func TestFig8ModeledGPUBeatsCPU(t *testing.T) {
	if testing.Short() {
		t.Skip("system test")
	}
	rows, err := Fig8(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || len(rows)%2 != 0 {
		t.Fatalf("Fig8 returned %d rows, want CPU/GPU pairs", len(rows))
	}
	for i := 0; i < len(rows); i += 2 {
		cpu, g := rows[i], rows[i+1]
		if cpu.GPU || !g.GPU || cpu.Dataset != g.Dataset || cpu.Mode != g.Mode {
			t.Fatalf("rows %d,%d are not a CPU/GPU pair: %+v %+v", i, i+1, cpu, g)
		}
		if g.Total <= 0 || g.Total >= cpu.Total {
			t.Errorf("%s (%s): modeled GPU total %v, CPU total %v — want 0 < GPU < CPU",
				cpu.Dataset, cpu.Mode, g.Total, cpu.Total)
		}
	}
}

// TestTable3VideoBeatsImages turns Table 3's row into an assertion at
// quick scale: on both sequences the video stream is at least
// minTable3Ratio times smaller than independent images, and tracking
// over decoded video is as accurate as over lossless images (within
// 2 mm or 10 %, whichever is larger).
func TestTable3VideoBeatsImages(t *testing.T) {
	if testing.Short() {
		t.Skip("system test")
	}
	// Range-coded inter frames measure 13.9x / 14.1x (DEFLATE-coded
	// ones measured 11.7x / 11.3x); the floor leaves 7 % of margin.
	const minTable3Ratio = 13
	rows, err := Table3(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("Table3 returned %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		ratio := r.ImageMbps / r.VideoMbps
		t.Logf("%s: image %.2f Mbit/s, video %.2f Mbit/s (%.1fx); ATE image %.4f m, video %.4f m",
			r.Sequence, r.ImageMbps, r.VideoMbps, ratio, r.ATEImage, r.ATEVideo)
		if ratio < minTable3Ratio {
			t.Errorf("%s: video only %.1fx smaller than images, want >= %d", r.Sequence, ratio, minTable3Ratio)
		}
		if tol := math.Max(0.002, 0.1*r.ATEImage); math.Abs(r.ATEVideo-r.ATEImage) > tol {
			t.Errorf("%s: ATE over video %.4f m, over images %.4f m: apart by more than %.4f m",
				r.Sequence, r.ATEVideo, r.ATEImage, tol)
		}
	}
}

func TestRunnerDeliversDelayedPoses(t *testing.T) {
	if testing.Short() {
		t.Skip("system test")
	}
	seq := dataset.V202(camera.Stereo)
	p := &Participant{
		Seq: seq, Stride: 2,
		Link: Link{DelaySec: 0.2}, // 0.4 s RTT = 6 steps at 15 FPS
	}
	r, err := NewRunner(server.DefaultConfig(), 2.0/30, p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// A pose answered at step k is applied at step k+6, so after step s
	// the answers of the last min(s+1, 6) steps are still in flight.
	r.OnStep = func(step int, _ float64) bool {
		if want := min(step+1, 6); len(p.pending) != want {
			t.Errorf("after step %d: %d answers in flight, want %d", step, len(p.pending), want)
		}
		return false
	}
	if err := r.Run(30); err != nil {
		t.Fatal(err)
	}
	if p.Steps != 30 {
		t.Errorf("steps = %d", p.Steps)
	}
	if len(p.pending) != 0 {
		t.Error("pending poses not flushed at end of run")
	}
	// The corrected (hindsight) trajectory should be accurate even
	// though answers arrived late.
	est := p.Dev.Trajectory()
	gt := seq.TruthTrajectory(60, 2)
	if len(est) == 0 {
		t.Fatal("no trajectory")
	}
	sum := 0.0
	for _, pt := range est {
		g, _ := gt.At(pt.T)
		sum += pt.Pos.Dist(g)
	}
	if mean := sum / float64(len(est)); math.IsNaN(mean) || mean > 0.5 {
		t.Errorf("mean error %.3f m with delayed poses", mean)
	}
}

// TestRunnerBandwidthDropsFrames: a 12 Mbit/s uplink carries 0.8 Mbit
// per 15 FPS step. V202's first stereo frame is an intra frame of
// ~385 KB, close to four steps of transmission, so its pose is applied
// after the whole steps it takes to send, and the camera skips frames
// while more than two steps of video are still queued.
func TestRunnerBandwidthDropsFrames(t *testing.T) {
	if testing.Short() {
		t.Skip("system test")
	}
	const bps, period = 12e6, 2.0 / 30
	p := &Participant{
		Seq: dataset.V202(camera.Stereo), Stride: 2,
		Link: Link{UplinkBps: bps},
	}
	r, err := NewRunner(server.DefaultConfig(), period, p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	wantLag, applied := 0, -1
	r.OnStep = func(step int, _ float64) bool {
		if step == 0 {
			wantLag = int(float64(p.Dev.UplinkBytes()) * 8 / bps / period)
		}
		if applied < 0 && (len(p.pending) == 0 || p.pending[0].frameIdx != 0) {
			applied = step
		}
		return false
	}
	if err := r.Run(30); err != nil {
		t.Fatal(err)
	}
	if wantLag < 3 {
		t.Fatalf("first frame sends in %d steps; the test needs one that fills the queue", wantLag)
	}
	if applied != wantLag {
		t.Errorf("first pose applied at step %d, want %d (the steps it takes to send)", applied, wantLag)
	}
	if p.Dropped == 0 {
		t.Error("queued uplink skipped no frames")
	}
}

// TestTimelinePrintsInOneOrder: the per-client lines come out of a map
// and must not come out in its order.
func TestTimelinePrintsInOneOrder(t *testing.T) {
	res := &Fig10Result{
		Series:   []TimelinePoint{{T: 1, ATE: 0.5}},
		FinalATE: map[string]float64{"B": 0.02, "C": 0.03, "A": 0.01, "D": 0.04, "E": 0.05},
	}
	var first string
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		printTimeline(&buf, "timeline", res)
		if i == 0 {
			first = buf.String()
		} else if buf.String() != first {
			t.Fatalf("render %d differs:\n%s\nfirst:\n%s", i, buf.String(), first)
		}
	}
}
