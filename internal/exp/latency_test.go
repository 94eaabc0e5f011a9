package exp

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"slamshare/internal/camera"
	"slamshare/internal/dataset"
	"slamshare/internal/obs"
	"slamshare/internal/server"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestLatencyTableGolden locks the experiments-latency table format
// byte-for-byte: deterministic durations go into a registry, and the
// rendered table must match testdata/latency_golden.txt exactly.
// Regenerate with `go test ./internal/exp -run Golden -update` after a
// deliberate format change.
func TestLatencyTableGolden(t *testing.T) {
	reg := obs.NewRegistry()
	feed := func(stage string, ds ...time.Duration) {
		h := reg.Histogram(stage)
		for _, d := range ds {
			h.Observe(d)
		}
	}
	feed("frame.total", 10*time.Millisecond, 20*time.Millisecond, 30*time.Millisecond, 40*time.Millisecond)
	feed("decode", time.Millisecond, 2*time.Millisecond, 3*time.Millisecond, 4*time.Millisecond)
	feed("track.queue", 300*time.Microsecond, 500*time.Microsecond)
	feed("track.extract", 5*time.Millisecond, 5*time.Millisecond, 5*time.Millisecond, 5*time.Millisecond)
	feed("track.search_local", 700*time.Microsecond, 900*time.Microsecond)
	feed("track.total", 8*time.Millisecond, 16*time.Millisecond, 24*time.Millisecond, 32*time.Millisecond)
	feed("mapping.keyframe", 7*time.Millisecond)
	feed("wal.append", 100*time.Microsecond, 200*time.Microsecond)
	// A stage outside the pipeline order must append after the known
	// ones, alphabetically.
	feed("zz.custom", time.Millisecond)
	// Registered but never observed: must not appear at all.
	reg.Histogram("merge.total")

	var buf bytes.Buffer
	printLatencyRows(&buf, LatencyRows(reg))

	golden := filepath.Join("testdata", "latency_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("latency table drifted from golden.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestDebugEndpointLiveRun drives a short two-client run and scrapes
// the debug endpoint the way an operator would: the /debug/vars JSON
// must contain the pipeline's stage histograms, each with monotone
// quantiles, and /debug/spans must return well-formed span records.
func TestDebugEndpointLiveRun(t *testing.T) {
	seqA := dataset.MH04(camera.Stereo)
	seqB := dataset.MH05(camera.Stereo)
	stride := 3
	r, err := NewRunner(server.DefaultConfig(), float64(stride)/seqA.FPS,
		&Participant{Name: "A", Seq: seqA, Stride: stride},
		&Participant{Name: "B", Seq: seqB, Stride: stride})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	srv := r.Srv
	for _, p := range r.Parts {
		p.Dev.Obs = srv.Obs()
	}
	if err := r.Run(30); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(srv.DebugHandler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/vars: status %d", resp.StatusCode)
	}
	var snap obs.RegistrySnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("/debug/vars: %v", err)
	}
	wantStages := []string{
		"client.encode", "decode", "track.extract", "track.match",
		"track.search_local", "track.total", "frame.total",
	}
	for _, stage := range wantStages {
		h, ok := snap.Histograms[stage]
		if !ok {
			t.Errorf("histogram %q missing from /debug/vars", stage)
			continue
		}
		if h.Count == 0 {
			t.Errorf("histogram %q recorded no samples", stage)
		}
		if !(h.P50Ns <= h.P90Ns && h.P90Ns <= h.P99Ns && h.P99Ns <= h.MaxNs) {
			t.Errorf("histogram %q quantiles not monotone: p50=%d p90=%d p99=%d max=%d",
				stage, h.P50Ns, h.P90Ns, h.P99Ns, h.MaxNs)
		}
	}
	if n, ok := snap.Vars["sessions.open"]; !ok || n == nil {
		t.Errorf("sessions.open missing from vars: %v", snap.Vars)
	}

	resp2, err := ts.Client().Get(ts.URL + "/debug/spans?n=50")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var spanDoc struct {
		Spans []obs.SpanRecord `json:"spans"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&spanDoc); err != nil {
		t.Fatalf("/debug/spans: %v", err)
	}
	if len(spanDoc.Spans) == 0 {
		t.Fatal("no spans recorded after a 30-step two-client run")
	}
	for _, sp := range spanDoc.Spans {
		if sp.Stage == "" || sp.Dur < 0 {
			t.Errorf("malformed span: %+v", sp)
		}
	}
}
