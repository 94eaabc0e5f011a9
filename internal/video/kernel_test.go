package video

import (
	"bytes"
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
