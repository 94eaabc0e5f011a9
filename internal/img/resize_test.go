package img

import (
	"math/rand"
	"testing"
)

// resizeRowsRef is ResizeRows as it stood before the column taps: every
// coordinate and weight re-derived per pixel, pixels fetched through
// the bounds-checked At/Set. Kept verbatim as the oracle.
func (g *Gray) resizeRowsRef(out *Gray, rowLo, rowHi int) {
	w, h := out.W, out.H
	sx := float64(g.W) / float64(w)
	sy := float64(g.H) / float64(h)
	for y := rowLo; y < rowHi; y++ {
		fy := (float64(y)+0.5)*sy - 0.5
		y0 := int(fy)
		if y0 < 0 {
			y0 = 0
		}
		y1 := y0 + 1
		if y1 >= g.H {
			y1 = g.H - 1
		}
		wy := fy - float64(y0)
		if wy < 0 {
			wy = 0
		}
		for x := 0; x < w; x++ {
			fx := (float64(x)+0.5)*sx - 0.5
			x0 := int(fx)
			if x0 < 0 {
				x0 = 0
			}
			x1 := x0 + 1
			if x1 >= g.W {
				x1 = g.W - 1
			}
			wx := fx - float64(x0)
			if wx < 0 {
				wx = 0
			}
			v := (1-wy)*((1-wx)*float64(g.At(x0, y0))+wx*float64(g.At(x1, y0))) +
				wy*((1-wx)*float64(g.At(x0, y1))+wx*float64(g.At(x1, y1)))
			out.Set(x, y, byte(v+0.5))
		}
	}
}

// checkResize resamples src to (w, h) in two row ranges split at cut
// and compares every pixel with the reference.
func checkResize(t *testing.T, src *Gray, w, h, cut int) {
	t.Helper()
	got, want := New(w, h), New(w, h)
	got.Fill(0xAA) // every pixel must be written
	src.ResizeRows(got, 0, cut)
	src.ResizeRows(got, cut, h)
	src.resizeRowsRef(want, 0, h)
	for i := range want.Pix {
		if got.Pix[i] != want.Pix[i] {
			t.Fatalf("%dx%d -> %dx%d (cut %d): pixel (%d,%d) = %d, reference %d",
				src.W, src.H, w, h, cut, i%w, i/w, got.Pix[i], want.Pix[i])
		}
	}
}

func FuzzResizeRows(f *testing.F) {
	pix := make([]byte, 97*97)
	rng := rand.New(rand.NewSource(3))
	for i := range pix {
		pix[i] = byte(rng.Intn(256))
	}
	f.Add(pix, uint8(96), uint8(96), uint8(79), uint8(79), uint8(40)) // the pyramid's 1.2 step
	f.Add(pix, uint8(0), uint8(0), uint8(96), uint8(96), uint8(3))    // 1x1 source: x1, y1 clamp everywhere
	f.Add(pix, uint8(9), uint8(4), uint8(96), uint8(50), uint8(0))    // up-sampling
	f.Add(pix, uint8(96), uint8(96), uint8(0), uint8(0), uint8(0))    // down to one pixel
	f.Add(pix, uint8(30), uint8(96), uint8(96), uint8(2), uint8(1))   // up one way, down the other
	f.Add(pix, uint8(63), uint8(47), uint8(63), uint8(47), uint8(20)) // identity
	f.Fuzz(func(t *testing.T, pix []byte, sw, sh, dw, dh, cut uint8) {
		srcW, srcH := 1+int(sw)%97, 1+int(sh)%97
		w, h := 1+int(dw)%97, 1+int(dh)%97
		if len(pix) < srcW*srcH {
			return
		}
		checkResize(t, &Gray{W: srcW, H: srcH, Pix: pix[:srcW*srcH]}, w, h, int(cut)%(h+1))
	})
}

// TestResizeRowsEmpty: the zero-size guard sits in ResizeRows itself,
// which callers other than Resize reach directly — an empty source
// resamples to black (what reading it through At gave), an empty
// target is a no-op, and neither indexes an empty tap table.
func TestResizeRowsEmpty(t *testing.T) {
	out := New(5, 4)
	out.Fill(9)
	New(0, 0).ResizeRows(out, 1, 3)
	for i, p := range out.Pix {
		want := byte(9) // rows 0 and 3 are not in the range
		if y := i / 5; y == 1 || y == 2 {
			want = 0
		}
		if p != want {
			t.Fatalf("empty source: pixel %d = %d, want %d", i, p, want)
		}
	}
	New(8, 8).ResizeRows(New(0, 6), 0, 6)
	New(8, 8).ResizeRows(New(6, 0), 0, 0)
	if r := New(0, 7).Resize(3, 3); r.W != 3 || r.H != 3 || r.Mean() != 0 {
		t.Errorf("Resize of an empty image: %dx%d mean %v", r.W, r.H, r.Mean())
	}
}

// TestPyramidBuildReuse: rebuilding a Pyramid over other images, more
// and fewer levels gives what a fresh pyramid gives — no stale level,
// scale or tap survives — through a runner and inline alike.
func TestPyramidBuildReuse(t *testing.T) {
	reversed := func(n int, f func(int)) {
		for i := n - 1; i >= 0; i-- {
			f(i)
		}
	}
	var p Pyramid
	rng := rand.New(rand.NewSource(8))
	for trial, c := range []struct{ w, h, n int }{
		{200, 150, 4}, {120, 90, 2}, {300, 200, 6}, {40, 40, 4}, {31, 31, 3}, {200, 150, 4},
	} {
		base := New(c.w, c.h)
		for i := range base.Pix {
			base.Pix[i] = byte(rng.Intn(256))
		}
		run := reversed
		if trial%2 == 1 {
			run = nil
		}
		p.Build(base, c.n, 1.2, run)
		want := NewPyramid(base, c.n, 1.2)
		if len(p.Levels) != len(want.Levels) || len(p.Scales) != len(want.Scales) {
			t.Fatalf("trial %d: %d levels, fresh pyramid has %d", trial, len(p.Levels), len(want.Levels))
		}
		for l := range want.Levels {
			g, w := p.Levels[l], want.Levels[l]
			if g.W != w.W || g.H != w.H || p.Scales[l] != want.Scales[l] || AbsDiff(g, w) != 0 {
				t.Fatalf("trial %d level %d: rebuilt %dx%d scale %v differs from fresh %dx%d scale %v",
					trial, l, g.W, g.H, p.Scales[l], w.W, w.H, want.Scales[l])
			}
			// And the fresh pyramid is the reference resample.
			if l > 0 {
				ref := New(w.W, w.H)
				want.Levels[l-1].resizeRowsRef(ref, 0, ref.H)
				if AbsDiff(w, ref) != 0 {
					t.Fatalf("trial %d level %d differs from the reference resample", trial, l)
				}
			}
		}
	}
}

// TestPyramidAllocs: the public constructor still returns fresh levels
// (one struct, two slices, an image and its pixels per level, one tap
// table), and a Pyramid rebuilt per frame — the extractor's — pays
// only the per-level closure its runner takes.
func TestPyramidAllocs(t *testing.T) {
	g := benchImage()
	fresh := testing.AllocsPerRun(10, func() { NewPyramid(g, 4, 1.2) })
	t.Logf("NewPyramid: %.1f allocs/op", fresh)
	if fresh > 12 {
		t.Errorf("NewPyramid allocates %.1f/op, want <= 12", fresh)
	}
	var p Pyramid
	inline := func(n int, f func(int)) {
		for i := 0; i < n; i++ {
			f(i)
		}
	}
	p.Build(g, 4, 1.2, inline)
	reused := testing.AllocsPerRun(10, func() { p.Build(g, 4, 1.2, inline) })
	t.Logf("Pyramid.Build on a built pyramid: %.1f allocs/op", reused)
	if reused > 4 {
		t.Errorf("rebuilding a pyramid allocates %.1f/op, want <= 4", reused)
	}
}
