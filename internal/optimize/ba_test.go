package optimize

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"slamshare/internal/camera"
	"slamshare/internal/geom"
)

// Bits of fuzzProblem's shape byte.
const (
	fuzzStereo    = 1 << iota // Bf > 0
	fuzzShortFix              // FixedCam shorter than Cams
	fuzzAllFree               // no camera fixed
	fuzzHeavyTail             // a third of the measurements are gross outliers
)

// fuzzProblem builds a random bundle-adjustment problem that reaches
// every branch of Solve: mono and stereo rows (a stereo problem also
// lists observations with no right-image match), fixed and free
// cameras, a camera that observes a point twice, a point whose only
// observation weighs so little that its Hpp is singular, a point behind
// every camera, Sigma <= 0, and a noisy start that makes LM reject
// steps.
func fuzzProblem(seed int64, shape uint8) *BAProblem {
	rng := rand.New(rand.NewSource(seed))
	in := camera.EuRoCIntrinsics()
	p := &BAProblem{Intr: in}
	if shape&fuzzStereo != 0 {
		p.Bf = in.Fx * (0.05 + 0.1*rng.Float64())
	}
	nc := 1 + rng.Intn(5)
	var truth []geom.SE3
	for i := 0; i < nc; i++ {
		c := geom.SE3{
			R: geom.QuatFromAxisAngle(geom.Vec3{X: rng.NormFloat64() * 0.2, Y: 1}, 0.04*float64(i)),
			T: geom.Vec3{X: -0.3 * float64(i), Y: rng.NormFloat64() * 0.05},
		}
		truth = append(truth, c)
		fixed := i == 0 || rng.Intn(4) == 0
		if shape&fuzzAllFree != 0 {
			fixed = false
		}
		p.FixedCam = append(p.FixedCam, fixed)
		if fixed {
			p.Cams = append(p.Cams, c)
		} else {
			p.Cams = append(p.Cams, perturbPose(c, 0.02*rng.Float64(), 0.05*rng.Float64(), rng))
		}
	}
	if shape&fuzzShortFix != 0 {
		p.FixedCam = p.FixedCam[:rng.Intn(nc+1)]
	}
	sigmas := []float64{1, 1, 1, 1.5, 2, 0, -1}
	observe := func(ci, pi int, pw geom.Vec3, sigma float64) {
		pc := truth[ci].Apply(pw)
		px := in.ProjectUnchecked(pc)
		ob := Observation{
			Cam: ci, Pt: pi, Sigma: sigma, Right: -1,
			UV: geom.Vec2{X: px.X + rng.NormFloat64()*0.5, Y: px.Y + rng.NormFloat64()*0.5},
		}
		if shape&fuzzHeavyTail != 0 && rng.Intn(3) == 0 {
			ob.UV.X += 40 * rng.NormFloat64()
			ob.UV.Y += 40 * rng.NormFloat64()
		}
		if rng.Intn(4) != 0 {
			ob.Right = px.X - p.Bf/pc.Z + rng.NormFloat64()*0.5
		}
		p.Obs = append(p.Obs, ob)
	}
	np := 2 + rng.Intn(30)
	for pi := 0; pi < np; pi++ {
		pw := geom.Vec3{X: (rng.Float64() - 0.5) * 6, Y: (rng.Float64() - 0.5) * 4, Z: 2 + rng.Float64()*8}
		switch pi {
		case 0: // behind every camera
			pw.Z = -1 - rng.Float64()
		case 1: // seen once, at a weight that leaves Hpp singular
			p.Points = append(p.Points, pw)
			observe(nc-1, pi, pw, 1e6)
			continue
		}
		for ci := 0; ci < nc; ci++ {
			if pi > 0 && rng.Intn(5) == 0 {
				continue
			}
			observe(ci, pi, pw, sigmas[rng.Intn(len(sigmas))])
			if rng.Intn(10) == 0 { // the same camera sees the point twice
				observe(ci, pi, pw, 1)
			}
		}
		pn := 0.1 * rng.Float64()
		p.Points = append(p.Points, pw.Add(geom.Vec3{X: rng.NormFloat64() * pn, Y: rng.NormFloat64() * pn, Z: rng.NormFloat64() * pn}))
	}
	rng.Shuffle(len(p.Obs), func(i, j int) { p.Obs[i], p.Obs[j] = p.Obs[j], p.Obs[i] })
	return p
}

// cloneProblem deep-copies the slices Solve writes or reassigns.
func cloneProblem(p *BAProblem) *BAProblem {
	q := *p
	q.Cams = slices.Clone(p.Cams)
	q.Points = slices.Clone(p.Points)
	q.FixedCam = slices.Clone(p.FixedCam)
	q.Obs = slices.Clone(p.Obs)
	return &q
}

// sameBits reports the first field in which two solves differ, by raw
// float bits, or "" when they agree everywhere.
func sameBits(a, b *BAProblem, ra, rb BAResult) string {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	switch {
	case ra.Iterations != rb.Iterations:
		return "iterations"
	case !eq(ra.InitChi2, rb.InitChi2):
		return "initial chi2"
	case !eq(ra.FinalChi2, rb.FinalChi2):
		return "final chi2"
	case !slices.Equal(ra.Outliers, rb.Outliers):
		return "outliers"
	}
	for i := range a.Cams {
		x, y := a.Cams[i], b.Cams[i]
		if !eq(x.R.W, y.R.W) || !eq(x.R.X, y.R.X) || !eq(x.R.Y, y.R.Y) || !eq(x.R.Z, y.R.Z) ||
			!eq(x.T.X, y.T.X) || !eq(x.T.Y, y.T.Y) || !eq(x.T.Z, y.T.Z) {
			return "camera"
		}
	}
	for i := range a.Points {
		x, y := a.Points[i], b.Points[i]
		if !eq(x.X, y.X) || !eq(x.Y, y.Y) || !eq(x.Z, y.Z) {
			return "point"
		}
	}
	return ""
}

// FuzzSolveMatchesRef: Solve and solveRef, the solver before its
// buffers left the iteration loop, produce the same bits in every
// output field.
func FuzzSolveMatchesRef(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, uint8(seed), uint8(seed%10))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape, iters uint8) {
		p := fuzzProblem(seed, shape)
		q := cloneProblem(p)
		maxIters := 1 + int(iters%10)
		rp, rq := p.Solve(maxIters), q.solveRef(maxIters)
		if d := sameBits(p, q, rp, rq); d != "" {
			t.Fatalf("seed %d shape %#x, %d iterations: Solve and solveRef differ in the %s", seed, shape, maxIters, d)
		}
	})
}

// TestSolveFuzzSeedsReject: the fuzzer's seed problems include LM steps
// that are rejected, the branch that hands the trial buffers back. A
// step k+1 was rejected when solving for k+1 iterations leaves the
// problem where solving for k left it.
func TestSolveFuzzSeedsReject(t *testing.T) {
	for seed := int64(0); seed < 16; seed++ {
		base := fuzzProblem(seed, uint8(seed))
		for k := 1; k < 10; k++ {
			a, b := cloneProblem(base), cloneProblem(base)
			a.Solve(k)
			rb := b.Solve(k + 1)
			if rb.Iterations == k+1 && slices.Equal(a.Cams, b.Cams) && slices.Equal(a.Points, b.Points) {
				return
			}
		}
	}
	t.Fatal("no seed problem rejects an LM step")
}

// solveAllocs counts what Solve(iters) allocates on stereoWindow(),
// beyond building the fixture.
func solveAllocs(iters int) float64 {
	const runs = 10
	probs := make([]*BAProblem, runs+1)
	for i := range probs {
		probs[i] = stereoWindow()
	}
	next := 0
	return testing.AllocsPerRun(runs, func() {
		probs[next].Solve(iters)
		next++
	})
}

// TestSolveAllocs: Solve allocates its buffers once per call, so more
// iterations cost no more allocations.
func TestSolveAllocs(t *testing.T) {
	one, eight := solveAllocs(1), solveAllocs(8)
	if eight > one {
		t.Errorf("Solve(8) allocates %v times, Solve(1) %v", eight, one)
	}
}
