package feature

import "testing"

// TestExtractAllocs pins the extractor's scratch discipline: in steady
// state everything but the returned keypoints — pyramid levels, strip
// buffers, score planes, corner lists, quadtree storage, SoA staging —
// comes from pooled scratch, so a call allocates a small constant (the
// result, one closure per parallel stage), not thousands of quadrant
// lists and score rows.
func TestExtractAllocs(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("renders dataset frames; needs sync.Pool to keep what it is given")
	}
	left, right, _ := benchPair(t)
	ex := NewExtractor(DefaultConfig())
	ex.Extract(left)
	ex.Extract(right)
	i := 0
	allocs := testing.AllocsPerRun(10, func() {
		// Alternate eyes, as a stereo session does on one scratch.
		if i++; i&1 == 0 {
			ex.Extract(left)
		} else {
			ex.Extract(right)
		}
	})
	t.Logf("Extract steady state: %.1f allocs/op", allocs)
	if allocs > 100 {
		t.Errorf("Extract allocates %.1f/op in steady state, want <= 100; scratch reuse regressed", allocs)
	}
}

// TestStereoMatchAllocs: the row index is a pooled counting sort, not
// a map of slices built per call.
func TestStereoMatchAllocs(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("renders dataset frames; needs sync.Pool to keep what it is given")
	}
	left, right, seq := benchPair(t)
	ex := NewExtractor(DefaultConfig())
	kl, kr := ex.Extract(left), ex.Extract(right)
	match := func() { StereoMatchPar(kl, kr, seq.Rig.Intr.Fx, seq.Rig.Baseline, 2, nil) }
	match()
	allocs := testing.AllocsPerRun(20, match)
	t.Logf("StereoMatchPar steady state: %.1f allocs/op", allocs)
	if allocs > 8 {
		t.Errorf("StereoMatchPar allocates %.1f/op in steady state, want <= 8", allocs)
	}
}
