package exp

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"slamshare/internal/offload"
)

// TestOffloadTableGolden locks the experiments-offload table format
// byte-for-byte: deterministic rows go through the printer and the
// rendered table must match testdata/offload_golden.txt exactly.
// Regenerate with `go test ./internal/exp -run Golden -update` after a
// deliberate format change.
func TestOffloadTableGolden(t *testing.T) {
	rows := []OffloadRow{
		{Mode: "full", RTTms: 0, ATEcm: 3.21, UplinkMbps: 14.70, Tracked: 118, Steps: 120},
		{Mode: "full", RTTms: 167, ATEcm: 9.85, UplinkMbps: 14.70, Tracked: 118, Steps: 120},
		{Mode: "split", RTTms: 0, ATEcm: 3.21, UplinkMbps: 1.03, Tracked: 118, Steps: 120},
		{Mode: "split", RTTms: 167, ATEcm: 9.85, UplinkMbps: 1.03, Tracked: 118, Steps: 120},
		{Mode: "shadow", RTTms: 0, ATEcm: 41.07, UplinkMbps: 0.03, Tracked: 0, Steps: 120},
	}
	var buf bytes.Buffer
	printOffloadRows(&buf, rows)

	golden := filepath.Join("testdata", "offload_golden.txt")
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
		t.Errorf("offload table drifted from golden.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestOffloadRunModes smoke-tests the sweep's per-mode physics on a
// short run: split tracks like full on a far lighter uplink, and
// shadow sends almost nothing, tracks nothing, and drifts the most.
func TestOffloadRunModes(t *testing.T) {
	if testing.Short() {
		t.Skip("system test")
	}
	const n, stride = 80, 2
	full, err := offloadRun(offload.ModeFull, 0, n, stride)
	if err != nil {
		t.Fatal(err)
	}
	split, err := offloadRun(offload.ModeSplit, 0, n, stride)
	if err != nil {
		t.Fatal(err)
	}
	shadow, err := offloadRun(offload.ModeShadow, 0, n, stride)
	if err != nil {
		t.Fatal(err)
	}
	if full.Tracked == 0 || split.Tracked == 0 {
		t.Fatalf("no tracking: full %d, split %d", full.Tracked, split.Tracked)
	}
	if shadow.Tracked != 0 {
		t.Errorf("shadow mode tracked %d frames", shadow.Tracked)
	}
	// Split's uplink is descriptor-dominated (47 bytes a keypoint, 63
	// stereo-matched) — in the same ballpark as video, not lighter; its win is
	// the removed encode/decode/extract stages. Shadow's sync pings
	// must be negligible next to either.
	if shadow.UplinkMbps >= split.UplinkMbps/10 || shadow.UplinkMbps >= full.UplinkMbps/10 {
		t.Errorf("shadow uplink %.2f Mbit/s not well below split %.2f / full %.2f",
			shadow.UplinkMbps, split.UplinkMbps, full.UplinkMbps)
	}
	if shadow.ATEcm <= full.ATEcm {
		t.Errorf("dead-reckoning ATE %.2f cm not above full offload %.2f",
			shadow.ATEcm, full.ATEcm)
	}
}
