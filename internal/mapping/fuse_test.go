package mapping

import (
	"math"
	"math/rand"
	"testing"

	"slamshare/internal/feature"
	"slamshare/internal/geom"
	"slamshare/internal/smap"
)

// fuseMatchLinear is fusion's choice as a scan over every keypoint in
// index order, the loop kpGrid.match replaced: the first keypoint at
// the smallest distance wins. It is match's oracle, and it also counts
// the descriptors it compares.
func fuseMatchLinear(kps []feature.Keypoint, bindings []smap.ID, px geom.Vec2, desc feature.Descriptor, tol float64) (best, compared int) {
	best, bestD := -1, feature.MatchThresholdStrict+1
	for i, kp := range kps {
		if bindings[i] != 0 {
			continue
		}
		dx := kp.X - px.X
		dy := kp.Y - px.Y
		if dx*dx+dy*dy > tol*tol*4 {
			continue
		}
		compared++
		if d := feature.Distance(desc, kp.Desc); d < bestD {
			best, bestD = i, d
		}
	}
	return best, compared
}

// FuzzFuseMatch: the grid walk picks the keypoint the linear scan
// picks and compares the same descriptors, with keypoints on cell
// borders and at the image edge, bound and unbound, descriptors drawn
// from a small pool so that distances tie, and projections on, just
// inside and just outside the radius.
func FuzzFuseMatch(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		f.Add(seed, uint8(40+17*seed), uint8(seed), uint8(seed/3))
	}
	f.Fuzz(func(t *testing.T, seed int64, n, tolSel, sizeSel uint8) {
		rng := rand.New(rand.NewSource(seed))
		tol := []float64{2.5, 1, 0.3, 4, 7.25, 0}[int(tolSel)%6]
		size := [][2]int{{752, 480}, {1241, 376}, {33, 17}, {0, 0}}[int(sizeSel)%4]
		w, h := float64(size[0]), float64(size[1])
		cell := newKPGrid(nil, size[0], size[1], tol).cell
		var pool [4]feature.Descriptor
		for i := range pool {
			for j := range pool[i] {
				pool[i][j] = rng.Uint64()
			}
		}
		// desc is a pool descriptor with up to three bits flipped, so
		// several keypoints often sit at one distance from a query.
		desc := func() feature.Descriptor {
			d := pool[rng.Intn(len(pool))]
			for k := rng.Intn(4); k > 0; k-- {
				b := rng.Intn(256)
				d[b/64] ^= 1 << (b % 64)
			}
			return d
		}
		// border picks a coordinate on or just below a cell border, or on an
		// image edge.
		border := func(extent float64) float64 {
			switch rng.Intn(5) {
			case 0:
				return cell * float64(rng.Intn(int(extent/cell)+2))
			case 4: // the last value below a cell border
				return math.Nextafter(cell*float64(1+rng.Intn(int(extent/cell)+1)), 0)
			case 1:
				return 0
			case 2:
				return math.Nextafter(extent, 0)
			}
			return math.Max(extent-1, 0)
		}
		kps := make([]feature.Keypoint, 1+int(n))
		bindings := make([]smap.ID, len(kps))
		for i := range kps {
			kp := &kps[i]
			switch rng.Intn(3) {
			case 0:
				kp.X, kp.Y = border(w), border(h)
			case 1:
				kp.X, kp.Y = border(w), rng.Float64()*h
			default:
				kp.X, kp.Y = rng.Float64()*w, rng.Float64()*h
			}
			kp.Desc = desc()
			if rng.Intn(4) == 0 {
				bindings[i] = smap.ID(1 + rng.Intn(1000))
			}
		}
		g := newKPGrid(kps, size[0], size[1], tol)
		for q := 0; q < 32; q++ {
			var px geom.Vec2
			switch rng.Intn(4) {
			case 0: // on, just inside or just outside a keypoint's radius
				kp := kps[rng.Intn(len(kps))]
				a := rng.Float64() * 2 * math.Pi
				r := 2 * tol * (1 + []float64{0, 1e-15, -1e-15, 1e-9, -1e-9}[rng.Intn(5)])
				px = geom.Vec2{X: kp.X + r*math.Cos(a), Y: kp.Y + r*math.Sin(a)}
			case 1: // straight across from a keypoint, exactly the radius away
				kp := kps[rng.Intn(len(kps))]
				px = geom.Vec2{X: kp.X + 2*tol, Y: kp.Y}
			case 2:
				px = geom.Vec2{X: border(w), Y: border(h)}
			default:
				px = geom.Vec2{X: rng.Float64() * w, Y: rng.Float64() * h}
			}
			d := desc()
			best, looked, compared := g.match(kps, bindings, px, d)
			wantBest, wantCompared := fuseMatchLinear(kps, bindings, px, d, tol)
			if best != wantBest || compared != wantCompared {
				t.Fatalf("tol %v, %vx%v, projection %v: grid picks %d after %d comparisons, the scan %d after %d",
					tol, w, h, px, best, compared, wantBest, wantCompared)
			}
			if looked > len(kps) {
				t.Fatalf("looked at %d of %d keypoints", looked, len(kps))
			}
		}
	})
}
