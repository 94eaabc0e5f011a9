package video

import (
	"testing"

	"slamshare/internal/camera"
	"slamshare/internal/dataset"
)

// TestDecodeAllocs pins the decoder's scratch discipline: a steady-state
// P-frame decode of one eye copies the payload and keeps the blocks'
// planes in the decoder's own scratch, keeps the coder's models on the
// stack and copies into the reference it keeps. What a call allocates
// is the returned frame, its header and its pixels: 2. (Inflating the
// retired DEFLATE inter layout took 58 or 59 here, nearly all of them
// the link tables compress/flate builds for each dynamic Huffman
// block.)
func TestDecodeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("renders dataset frames")
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
	if allocs > 2 {
		t.Errorf("Decode allocates %.1f/op in steady state, want <= 2; scratch reuse regressed", allocs)
	}
}
