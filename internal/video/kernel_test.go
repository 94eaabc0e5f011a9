package video

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"slamshare/internal/img"
)

func randGray(rng *rand.Rand, w, h int) *img.Gray {
	g := img.New(w, h)
	rng.Read(g.Pix)
	return g
}

// checkBlock compares the fast block kernels with the reference loops
// for one block position and displacement.
func checkBlock(t *testing.T, prev, cur *img.Gray, x0, y0, dx, dy, limit int) {
	t.Helper()
	got := blockSAD(prev, cur, x0, y0, dx, dy, limit)
	want := blockSADRef(prev, cur, x0, y0, dx, dy, limit)
	// Past the limit both abort, and only "past the limit" is promised.
	if got != want && (got <= limit || want <= limit) {
		t.Fatalf("blockSAD(%dx%d, block %d,%d, mv %d,%d, limit %d) = %d, reference %d",
			cur.W, cur.H, x0, y0, dx, dy, limit, got, want)
	}
	a, b := img.New(cur.W, cur.H), img.New(cur.W, cur.H)
	a.Fill(0xAA)
	b.Fill(0xAA)
	copyBlock(a, prev, x0, y0, dx, dy)
	copyBlockRef(b, prev, x0, y0, dx, dy)
	if !bytes.Equal(a.Pix, b.Pix) {
		t.Fatalf("copyBlock(%dx%d, block %d,%d, mv %d,%d) differs from the reference",
			cur.W, cur.H, x0, y0, dx, dy)
	}
}

func TestBlockKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, dim := range [][2]int{{8, 8}, {16, 16}, {37, 29}, {64, 40}} {
		w, h := dim[0], dim[1]
		prev := randGray(rng, w, h)
		cur := prev.Clone()
		for i := range cur.Pix { // close to prev, so small limits are reachable
			cur.Pix[i] += byte(rng.Intn(7) - 3)
		}
		// Every block against every displacement that can touch a border.
		for y0 := 0; y0 < h; y0 += blockSize {
			for x0 := 0; x0 < w; x0 += blockSize {
				for dy := -blockSize - 1; dy <= blockSize+1; dy++ {
					for dx := -blockSize - 1; dx <= blockSize+1; dx++ {
						checkBlock(t, prev, cur, x0, y0, dx, dy, 1<<30)
						checkBlock(t, prev, cur, x0, y0, dx, dy, rng.Intn(200))
					}
				}
				checkBlock(t, prev, cur, x0, y0, rng.Intn(2*w)-w, rng.Intn(2*h)-h, rng.Intn(4000))
			}
		}
	}
}

func FuzzBlockSAD(f *testing.F) {
	f.Add(int64(1), uint8(37), uint8(29), uint8(8), uint8(8), int8(5), int8(-1), uint16(300))
	f.Add(int64(2), uint8(8), uint8(8), uint8(0), uint8(0), int8(0), int8(0), uint16(0))
	f.Add(int64(3), uint8(64), uint8(64), uint8(56), uint8(56), int8(1), int8(1), uint16(65535))
	f.Add(int64(4), uint8(20), uint8(9), uint8(16), uint8(8), int8(-60), int8(60), uint16(10))
	f.Fuzz(func(t *testing.T, seed int64, w, h, bx, by uint8, dx, dy int8, limit uint16) {
		if w == 0 || h == 0 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		prev, cur := randGray(rng, int(w), int(h)), randGray(rng, int(w), int(h))
		if seed%2 == 0 { // correlated images, so the early abort is not always taken
			copy(cur.Pix, prev.Pix)
			cur.Pix[rng.Intn(len(cur.Pix))] ^= 0x10
		}
		// Blocks start on the block grid inside the image, as the codec's do.
		x0 := int(bx) % int(w) / blockSize * blockSize
		y0 := int(by) % int(h) / blockSize * blockSize
		checkBlock(t, prev, cur, x0, y0, int(dx), int(dy), int(limit))
	})
}

// bestMVOld is the search as it was before candidates were scored only
// once: every candidate of both refinement rounds, on the reference
// kernel.
func bestMVOld(prev, cur *img.Gray, x0, y0, gx, gy int) (int, int) {
	bx, by := 0, 0
	bestSAD := blockSADRef(prev, cur, x0, y0, 0, 0, 1<<30)
	try := func(dx, dy int) {
		if dx < -60 || dx > 60 || dy < -60 || dy > 60 {
			return
		}
		if s := blockSADRef(prev, cur, x0, y0, dx, dy, bestSAD); s < bestSAD {
			bestSAD, bx, by = s, dx, dy
		}
	}
	try(gx, gy)
	for r := 0; r < 2; r++ {
		cx, cy := bx, by
		for dy := -mvRange; dy <= mvRange; dy++ {
			for dx := -mvRange; dx <= mvRange; dx++ {
				try(cx+dx, cy+dy)
			}
		}
		if cx == bx && cy == by {
			break
		}
	}
	return bx, by
}

func TestBestMVMatchesOldSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const w, h = 72, 56
	for i := 0; i < 1000; i++ {
		// A frame shifted by a random vector and copied exactly (SAD 0 is
		// reachable), with dense noise, or with sparse noise. Three in
		// four are textured cells, whose flat areas give ties; the fourth
		// is a gentle ramp, where every vector near the true one scores
		// within a few units of it.
		prev := img.New(w, h)
		for j := range prev.Pix {
			if x, y := j%w, j/w; i%4 == 3 {
				prev.Pix[j] = byte(100 + (x+2*y)/16)
			} else {
				prev.Pix[j] = byte(32*(x/5%3+y/4%3) + rng.Intn(1+i%7))
			}
		}
		sx, sy := rng.Intn(15)-7, rng.Intn(15)-7
		cur := img.New(w, h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				v := prev.At(x+sx, y+sy)
				switch {
				case i%3 == 1:
					v += byte(rng.Intn(5))
				case i%3 == 2 && rng.Intn(16) == 0: // SADs of a few units, many near-ties
					v++
				}
				cur.Pix[y*w+x] = v
			}
		}
		x0, y0 := rng.Intn(w/blockSize)*blockSize, rng.Intn(h/blockSize)*blockSize
		gx, gy := 4*(rng.Intn(5)-2), 4*(rng.Intn(5)-2)
		if i%50 == 0 { // a predictor outside the vector range is ignored
			gx = 64
		}
		dx, dy := bestMV(prev, cur, x0, y0, gx, gy)
		wx, wy := bestMVOld(prev, cur, x0, y0, gx, gy)
		if dx != wx || dy != wy {
			t.Fatalf("block %d: bestMV(block %d,%d, predictor %d,%d) = (%d,%d), old search (%d,%d)",
				i, x0, y0, gx, gy, dx, dy, wx, wy)
		}
	}
}

// deadzonePair returns a reference and a current pixel whose difference
// (reference minus current) is d, for any d in -255..255.
func deadzonePair(d int) (pv, cv byte) {
	c := (255 - d) / 2
	return byte(c + d), byte(c)
}

// TestWithinDeadzoneLanes puts a difference of exactly dz, and of
// dz+1, of either sign, at every pixel of an interior block — so in each
// of the eight byte lanes of each row word — with every other pixel
// differing by ±dz, the most a lane's neighbours can hold and still
// pass.
func TestWithinDeadzoneLanes(t *testing.T) {
	prev, cur := img.New(blockSize, blockSize), img.New(blockSize, blockSize)
	if !interior(cur, prev, 0, 0, 0, 0) {
		t.Fatal("the block must take the fast path")
	}
	for _, dz := range []int{0, 1, 5, 127, 128, 254} {
		for _, d := range []int{dz, -dz, dz + 1, -dz - 1} {
			for at := range cur.Pix {
				for i := range cur.Pix {
					sign := 1 - 2*(i%3%2) // neighbours of both signs
					prev.Pix[i], cur.Pix[i] = deadzonePair(sign * dz)
				}
				prev.Pix[at], cur.Pix[at] = deadzonePair(d)
				want := d <= dz && d >= -dz
				if got := withinDeadzone(prev, cur, 0, 0, 0, 0, dz); got != want {
					t.Fatalf("dz %d: difference %d in lane %d of row %d: withinDeadzone = %v, want %v",
						dz, d, at%blockSize, at/blockSize, got, want)
				}
				if got := withinDeadzoneRef(prev, cur, 0, 0, 0, 0, dz); got != want {
					t.Fatalf("dz %d: difference %d at pixel %d: withinDeadzoneRef = %v, want %v", dz, d, at, got, want)
				}
			}
		}
	}
}

// FuzzWithinDeadzone compares the deadzone test's fast path with its
// pixel loop. cur is prev displaced by the vector under test, plus
// noise of up to ±noise, so the answer goes either way as dz varies;
// vectors reach off the frame, and dz takes every value an Encoder's
// Deadzone can hold.
func FuzzWithinDeadzone(f *testing.F) {
	f.Add(int64(1), uint8(37), uint8(29), uint8(8), uint8(8), int8(5), int8(-1), uint8(3), 3)
	f.Add(int64(2), uint8(64), uint8(64), uint8(24), uint8(32), int8(0), int8(0), uint8(5), 5)
	f.Add(int64(3), uint8(64), uint8(40), uint8(56), uint8(0), int8(3), int8(-2), uint8(0), 0)
	f.Add(int64(4), uint8(20), uint8(9), uint8(16), uint8(8), int8(-60), int8(60), uint8(2), -1)
	f.Add(int64(5), uint8(48), uint8(48), uint8(16), uint8(16), int8(1), int8(1), uint8(255), 254)
	f.Add(int64(6), uint8(48), uint8(48), uint8(16), uint8(16), int8(1), int8(1), uint8(255), 255)
	f.Add(int64(7), uint8(48), uint8(48), uint8(16), uint8(16), int8(-2), int8(1), uint8(200), 256)
	f.Add(int64(8), uint8(48), uint8(48), uint8(8), uint8(16), int8(0), int8(-1), uint8(9), math.MaxInt)
	f.Add(int64(9), uint8(48), uint8(48), uint8(8), uint8(16), int8(0), int8(-1), uint8(9), math.MinInt)
	f.Fuzz(func(t *testing.T, seed int64, w, h, bx, by uint8, dx, dy int8, noise uint8, dz int) {
		if w == 0 || h == 0 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		prev, cur := randGray(rng, int(w), int(h)), img.New(int(w), int(h))
		for y := 0; y < cur.H; y++ {
			for x := 0; x < cur.W; x++ {
				v := int(prev.At(x+int(dx), y+int(dy))) + rng.Intn(2*int(noise)+1) - int(noise)
				cur.Pix[y*cur.W+x] = byte(min(max(v, 0), 255))
			}
		}
		x0 := int(bx) % cur.W / blockSize * blockSize
		y0 := int(by) % cur.H / blockSize * blockSize
		got := withinDeadzone(prev, cur, x0, y0, int(dx), int(dy), dz)
		if want := withinDeadzoneRef(prev, cur, x0, y0, int(dx), int(dy), dz); got != want {
			t.Fatalf("withinDeadzone(%dx%d, block %d,%d, mv %d,%d, dz %d) = %v, reference %v",
				cur.W, cur.H, x0, y0, dx, dy, dz, got, want)
		}
	})
}
