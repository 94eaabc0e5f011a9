package video

import (
	"testing"

	"slamshare/internal/camera"
	"slamshare/internal/dataset"
)

// TestDecodeAllocs pins the decoder's scratch discipline: a steady-state
// P-frame decode of one eye takes its inflater and payload buffer from
// pools and copies into the reference it keeps. What a call still
// allocates is the returned frame and, nearly all the rest, the link
// tables compress/flate builds for each dynamic Huffman block, so the
// count follows the inflated plane's size. With residuals for coded
// blocks only it is 58 or 59 on V202's left eye at stride 2 (114 with
// a 16-bit residual for every pixel); 59 is the ceiling.
func TestDecodeAllocs(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("renders dataset frames; needs sync.Pool to keep what it is given")
	}
	const runs = 10
	seq := dataset.V202(camera.Stereo)
	enc, dec := NewEncoder(), NewDecoder()
	// One intra frame, then runs+1 P-frames (AllocsPerRun warms up
	// once): all inside one GOP, decoded in stream order.
	payloads := make([][]byte, runs+2)
	for i := range payloads {
		left, _ := seq.StereoFrame(2 * i)
		payloads[i] = enc.Encode(left)
	}
	if !IsIntra(payloads[0]) || IsIntra(payloads[len(payloads)-1]) {
		t.Fatal("want one intra frame, then P-frames only")
	}
	if _, err := dec.Decode(payloads[0]); err != nil {
		t.Fatal(err)
	}
	k := 0
	allocs := testing.AllocsPerRun(runs, func() {
		k++
		if _, err := dec.Decode(payloads[k]); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Decode steady state: %.1f allocs/op", allocs)
	if allocs > 59 {
		t.Errorf("Decode allocates %.1f/op in steady state, want <= 59; scratch reuse regressed", allocs)
	}
}
