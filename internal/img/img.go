// Package img provides the 8-bit grayscale image type the vision
// pipeline operates on, plus the scale pyramid used by ORB feature
// extraction. Images are plain byte buffers so they can be shipped over
// the wire, fed to the video codec, and scanned by the FAST detector
// without conversions.
package img

// Gray is an 8-bit grayscale image with row-major pixel storage.
type Gray struct {
	W, H int
	Pix  []byte // len == W*H
}

// New returns a black image of the given size.
func New(w, h int) *Gray {
	return &Gray{W: w, H: h, Pix: make([]byte, w*h)}
}

// At returns the pixel at (x, y). Out-of-bounds reads return 0.
func (g *Gray) At(x, y int) byte {
	if x < 0 || y < 0 || x >= g.W || y >= g.H {
		return 0
	}
	return g.Pix[y*g.W+x]
}

// Set writes the pixel at (x, y); out-of-bounds writes are ignored.
func (g *Gray) Set(x, y int, v byte) {
	if x < 0 || y < 0 || x >= g.W || y >= g.H {
		return
	}
	g.Pix[y*g.W+x] = v
}

// Row returns the pixel slice of row y.
func (g *Gray) Row(y int) []byte { return g.Pix[y*g.W : (y+1)*g.W] }

// Clone returns a deep copy.
func (g *Gray) Clone() *Gray {
	out := New(g.W, g.H)
	copy(out.Pix, g.Pix)
	return out
}

// Fill sets every pixel to v.
func (g *Gray) Fill(v byte) {
	for i := range g.Pix {
		g.Pix[i] = v
	}
}

// Mean returns the average intensity.
func (g *Gray) Mean() float64 {
	if len(g.Pix) == 0 {
		return 0
	}
	var sum int64
	for _, p := range g.Pix {
		sum += int64(p)
	}
	return float64(sum) / float64(len(g.Pix))
}

// Resize returns the image scaled to (w, h) with bilinear sampling.
func (g *Gray) Resize(w, h int) *Gray {
	out := New(w, h)
	g.ResizeRows(out, 0, out.H)
	return out
}

// resizeTap is one output column's horizontal sampling: the two source
// columns it blends and the weight of the second.
type resizeTap struct {
	x0, x1 int32
	wx     float64
}

// blend is the tap's horizontal blend of source row r.
func (t resizeTap) blend(r []byte) float64 {
	wx := t.wx
	return (1-wx)*float64(r[t.x0]) + wx*float64(r[t.x1])
}

// resizeTaps returns the column taps for resampling a srcW-wide image
// to dstW columns, in taps' storage when it is large enough. They
// depend only on the two widths, so a resample computes them once, not
// once per pixel.
func resizeTaps(taps []resizeTap, srcW, dstW int) []resizeTap {
	if cap(taps) < dstW {
		taps = make([]resizeTap, dstW)
	}
	taps = taps[:dstW]
	sx := float64(srcW) / float64(dstW)
	for x := range taps {
		fx := (float64(x)+0.5)*sx - 0.5
		x0 := int(fx)
		if x0 < 0 {
			x0 = 0
		}
		x1 := x0 + 1
		if x1 >= srcW {
			x1 = srcW - 1
		}
		wx := fx - float64(x0)
		if wx < 0 {
			wx = 0
		}
		taps[x] = resizeTap{int32(x0), int32(x1), wx}
	}
	return taps
}

// ResizeRows fills rows [rowLo, rowHi) of out with a bilinear resample
// of g. Rows are written independently, so disjoint ranges can be
// filled concurrently. An empty g resamples to black.
func (g *Gray) ResizeRows(out *Gray, rowLo, rowHi int) {
	if g.W == 0 || g.H == 0 || out.W == 0 {
		clear(out.Pix[rowLo*out.W : rowHi*out.W])
		return
	}
	g.resizeRows(out, rowLo, rowHi, resizeTaps(nil, g.W, out.W))
}

// resizeChunk is the column width of resizeRows' row-blend buffers,
// which live on the stack: wider images are resampled in column chunks.
const resizeChunk = 256

// resizeRows is ResizeRows over precomputed column taps (resizeTaps
// for g.W -> out.W); g and out must be non-empty. An output pixel is
// the vertical blend of two source rows' horizontal blends. A source
// row is blended once per strip and column chunk, mostly in the pass
// that writes the first output row reading it, and kept while the next
// output row reads it too (at scale 1.2, four rows in five). Every
// blend is the same floating-point expression on the same operands
// whatever the strip, chunk or reuse, so the result does not depend on
// how rows are dealt out.
func (g *Gray) resizeRows(out *Gray, rowLo, rowHi int, taps []resizeTap) {
	w := out.W
	taps = taps[:w]
	sy := float64(g.H) / float64(out.H)
	var bufA, bufB [resizeChunk]float64
	for lo := 0; lo < w; lo += resizeChunk {
		ct := taps[lo:min(lo+resizeChunk, w)]
		h0, h1 := bufA[:len(ct)], bufB[:len(ct)]
		have0, have1 := -1, -1 // the source rows h0 and h1 hold
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
			if have0 != y0 {
				if have1 == y0 {
					h0, h1 = h1, h0
					have0, have1 = have1, have0
				} else {
					r := g.Row(y0)
					for x, t := range ct {
						h0[x] = t.blend(r)
					}
					have0 = y0
				}
			}
			dst := out.Pix[y*w+lo : y*w+lo+len(ct)]
			a, b := h0[:len(dst)], h1[:len(dst)]
			if have1 == y1 {
				for x := range dst {
					v := (1-wy)*a[x] + wy*b[x]
					dst[x] = byte(v + 0.5)
				}
				continue
			}
			r := g.Row(y1)
			for x, t := range ct[:len(dst)] {
				hb := t.blend(r)
				b[x] = hb
				v := (1-wy)*a[x] + wy*hb
				dst[x] = byte(v + 0.5)
			}
			have1 = y1
		}
	}
}

// AbsDiff returns the mean absolute pixel difference between two
// equally sized images, used by video-codec tests.
func AbsDiff(a, b *Gray) float64 {
	if a.W != b.W || a.H != b.H || len(a.Pix) == 0 {
		return 255
	}
	var sum int64
	for i := range a.Pix {
		d := int64(a.Pix[i]) - int64(b.Pix[i])
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return float64(sum) / float64(len(a.Pix))
}

// Pyramid is a scale pyramid: level 0 is the input image, each level
// is scaled down by Factor from the previous one. ORB-SLAM3 uses 8
// levels with factor 1.2.
type Pyramid struct {
	Levels []*Gray
	Factor float64
	Scales []float64 // Scales[i] = Factor^i

	// Storage a later Build reuses: the level images this pyramid
	// allocated (owned[i] backs Levels[i]; owned[0] stays nil, level 0
	// is the caller's image) and the resample's column taps.
	owned []*Gray
	taps  []resizeTap
}

// NewPyramid builds an n-level pyramid with the given scale factor.
func NewPyramid(base *Gray, n int, factor float64) *Pyramid {
	p := new(Pyramid)
	p.Build(base, n, factor, nil)
	return p
}

// pyramidStrip is the row granularity of one parallel resample work
// item — coarse enough that per-item dispatch cost stays negligible.
const pyramidStrip = 32

// Build rebuilds p over base with each level's resample rows executed
// through run (the feature package passes its Parallelizer here, so
// pyramid construction batches through the same scheduler as the
// detection kernels). Levels stay sequential — each is sampled from
// the previous — and rows are index-disjoint, so the result is
// identical for any execution order. run == nil resamples inline.
//
// Build overwrites the level images of p's previous Build in place: a
// per-frame caller keeps one Pyramid and pays for level buffers once,
// and must be done with the old levels before rebuilding.
func (p *Pyramid) Build(base *Gray, n int, factor float64, run func(n int, f func(i int))) {
	if n < 1 {
		n = 1
	}
	if factor <= 1 {
		factor = 1.2
	}
	p.Factor = factor
	if len(p.owned) < n {
		p.owned = append(p.owned, make([]*Gray, n-len(p.owned))...)
		p.Levels = make([]*Gray, 0, n)
		p.Scales = make([]float64, 0, n)
	}
	p.Levels = append(p.Levels[:0], base)
	p.Scales = append(p.Scales[:0], 1)
	for i := 1; i < n; i++ {
		scale := p.Scales[i-1] * factor
		w := int(float64(base.W)/scale + 0.5)
		h := int(float64(base.H)/scale + 0.5)
		if w < 32 || h < 32 {
			break
		}
		out := p.owned[i]
		if out == nil {
			out = new(Gray)
			p.owned[i] = out
		}
		if cap(out.Pix) < w*h {
			out.Pix = make([]byte, w*h)
		}
		out.W, out.H, out.Pix = w, h, out.Pix[:w*h]
		src := p.Levels[i-1]
		p.taps = resizeTaps(p.taps, src.W, w)
		if run == nil {
			src.resizeRows(out, 0, h, p.taps)
		} else {
			taps := p.taps
			run((h+pyramidStrip-1)/pyramidStrip, func(s int) {
				lo := s * pyramidStrip
				src.resizeRows(out, lo, min(lo+pyramidStrip, h), taps)
			})
		}
		p.Levels = append(p.Levels, out)
		p.Scales = append(p.Scales, scale)
	}
}
