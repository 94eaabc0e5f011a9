package feature

import (
	"math/bits"
	"sync"

	"slamshare/internal/img"
)

// circle16 is the Bresenham circle of radius 3 used by FAST: 16 pixel
// offsets (dx, dy) in clockwise order.
var circle16 = [16][2]int{
	{0, -3}, {1, -3}, {2, -2}, {3, -1},
	{3, 0}, {3, 1}, {2, 2}, {1, 3},
	{0, 3}, {-1, 3}, {-2, 2}, {-3, 1},
	{-3, 0}, {-3, -1}, {-2, -2}, {-1, -3},
}

// rawCorner is a FAST detection before non-max suppression. Twelve
// bytes: a frame's corner lists are the bulk of the extractor's
// scratch, and a score is at most 17 margins of at most 255.
type rawCorner struct {
	x, y  int32
	score int32
}

// Polarity classes of a circle pixel against the centre, as stored in
// a polarityTable: bit 0 of the low half-word for brighter, of the
// high half-word for darker. Shifting a class left by the pixel's
// circle index builds both 16-bit masks in one uint32.
const (
	classBrighter = 1
	classDarker   = 1 << 16
)

// polarityTable maps an intensity difference d in [-255, 255], stored
// at index d+255, to its class for one threshold: classBrighter when
// d > t, classDarker when d < -t, 0 otherwise. The last entry pads the
// table to a power of two so lookups can mask instead of bounds-check.
type polarityTable [512]uint32

func (tab *polarityTable) fill(t int) {
	for d := -255; d <= 255; d++ {
		switch {
		case d > t:
			tab[d+255] = classBrighter
		case d < -t:
			tab[d+255] = classDarker
		default:
			tab[d+255] = 0
		}
	}
}

// arc9 returns the pixels of the 16-bit circular mask m that lie in a
// run of 9 or more contiguous set bits, 0 if there is no such run. The
// mask is doubled to 32 bits so wrap-around arcs are linear; three
// shift-and-ANDs leave a bit wherever a run of 8 starts and a fourth
// keeps those where a 9th follows. Every 9-window of the circle starts
// at one of the low 16 of those bits, and smearing them 9 wide and
// folding back to 16 bits is the union of the windows — the whole run.
func arc9(m uint32) uint32 {
	m |= m << 16
	r := m & (m >> 1)
	r &= r >> 2
	r &= r >> 4
	r &= m >> 8
	r &= 0xFFFF
	if r == 0 {
		return 0
	}
	r |= r << 1
	r |= r << 2
	r |= r<<4 | r<<5
	return (r | r>>16) & 0xFFFF
}

// lanes16 has a 1 in the low bit of each 16-bit lane of a word.
const lanes16 = 0x0001000100010001

// loadN is img.Load8 for the n < 8 bytes p[o:o+n], the word's upper
// bytes zero.
func loadN(p []byte, o, n int) uint64 {
	var x uint64
	for j, b := range p[o : o+n] {
		x |= uint64(b) << uint(8*j)
	}
	return x
}

// fastPreTest8 is FAST's high-speed test for the eight centres whose
// pixels are the bytes of c (centre k in byte k, as img.Load8 loads
// them) against the matching bytes of circle pixels 0, 4, 8 and 12:
// bit 8k of the result is set when at least three of the four are
// brighter than centre k by more than t, or at least three darker.
// t1 is (t+1)*lanes16, with t in [0, 255]. A centre of 0 with pixels
// of 0 never passes, so zeroed lanes are inert.
//
// A 9-arc covers three of the four pixels only when it starts (and so
// is centred) on one of them, and two otherwise: the test is stricter
// than FAST-9, part of the detector's definition rather than a filter
// that only drops non-corners. It implies the scan's former first
// check, that pixel 0 or 8 differs from the centre by more than t.
//
// The even and odd bytes are spread into 16-bit lanes. In a lane,
// 0x8000 + p - (c+t+1) has bit 15 set exactly when p > c+t, and
// 0x8000 + c - (t+1) - p exactly when p < c-t; every operand is below
// 0x200, so no lane borrows from the next and the result is the
// scalar classification bit for bit.
func fastPreTest8(c, p0, p4, p8, p12, t1 uint64) uint64 {
	const (
		lo   = 0x00ff00ff00ff00ff
		sign = lanes16 << 15
	)
	half := func(c, p0, p4, p8, p12 uint64) uint64 {
		kb := sign - c - t1 // 0x8000 - (c+t+1) per lane, at least 0x7e01
		kd := sign + c - t1 // 0x8000 + c - (t+1), at least 0x7f00
		b0, b4, b8, b12 := p0+kb, p4+kb, p8+kb, p12+kb
		d0, d4, d8, d12 := kd-p0, kd-p4, kd-p8, kd-p12
		bright := (b0&b4 | b8&b12) & (b0 | b4) & (b8 | b12)
		dark := (d0&d4 | d8&d12) & (d0 | d4) & (d8 | d12)
		return (bright | dark) & sign
	}
	even := half(c&lo, p0&lo, p4&lo, p8&lo, p12&lo)
	odd := half(c>>8&lo, p0>>8&lo, p4>>8&lo, p8>>8&lo, p12>>8&lo)
	// Even centre 2k sits at bit 16k+15 and odd centre 2k+1 at bit
	// 16k+15 of its own word: shift both to bit 8 times the centre.
	return even>>15 | odd>>7
}

// fastScore returns the FAST-9 corner score of the pixel at pix[idx]:
// the sum, over the contiguous arc of at least 9 circle pixels all
// brighter (or all darker) than the centre by more than t, of their
// margins beyond t — or 0 if there is no such arc. offsets are the
// circle16 offsets into pix for this image width and tab the polarity
// table of t, which must be in [0, 255].
//
// The circle is classified once into a brighter and a darker bitmask,
// written out pixel by pixel because Go does not unroll loops; most
// candidates die on the 9-contiguous bit test without the margins being
// looked at, and the arc is summed with no branch per pixel. At most
// one polarity can hold a 9-arc (two would need 18 pixels) and a circle
// with a gap holds at most one, so the score is the arc's pixel sum
// against as many centres and thresholds.
// The full circle is the exception inherited from the score loop this
// replaced, which walked the circle twice with an early exit and there
// counted pixel 0 a second time: that stays part of the score.
func fastScore(pix []byte, idx int, t int, offsets *[16]int, tab *polarityTable) int {
	c := int(pix[idx])
	o := offsets
	v := [16]uint8{
		pix[idx+o[0]], pix[idx+o[1]], pix[idx+o[2]], pix[idx+o[3]],
		pix[idx+o[4]], pix[idx+o[5]], pix[idx+o[6]], pix[idx+o[7]],
		pix[idx+o[8]], pix[idx+o[9]], pix[idx+o[10]], pix[idx+o[11]],
		pix[idx+o[12]], pix[idx+o[13]], pix[idx+o[14]], pix[idx+o[15]],
	}
	class := func(p uint8) uint32 { return tab[(int(p)-c+255)&511] }
	masks := class(v[0]) | class(v[1])<<1 | class(v[2])<<2 | class(v[3])<<3 |
		class(v[4])<<4 | class(v[5])<<5 | class(v[6])<<6 | class(v[7])<<7 |
		class(v[8])<<8 | class(v[9])<<9 | class(v[10])<<10 | class(v[11])<<11 |
		class(v[12])<<12 | class(v[13])<<13 | class(v[14])<<14 | class(v[15])<<15
	arc, sign := arc9(masks&0xFFFF), 1
	if arc == 0 {
		arc, sign = arc9(masks>>16), -1
		if arc == 0 {
			return 0
		}
	}
	n, sum := bits.OnesCount32(arc), 0
	if arc == 0xFFFF {
		n, sum = 17, int(v[0])
	}
	for i, p := range v {
		sum += int(p) & -int(arc>>uint(i)&1)
	}
	return sign*(sum-n*c) - n*t
}

// stripScratch holds one detection strip's score plane and candidate
// buffer, pooled across calls: strips are detected once per (level,
// strip) work item per frame per client. The score plane is one flat
// buffer addressed at the current image's width, with an always-zero
// row above and below the strip so non-max suppression reads
// neighbours without testing for the strip edge. It is sized to the
// largest strip seen, so the pool's scratch serves every pyramid level
// without reallocating, and only candidate cells are ever written:
// they are scrubbed back to zero before the scratch is returned
// (cheaper than clearing the plane).
type stripScratch struct {
	scores []int32
	cands  []rawCorner
}

var stripPool = sync.Pool{New: func() any { return new(stripScratch) }}

// DetectFAST finds FAST-9 corners in the image with the given
// threshold, applying 3x3 non-max suppression, restricted to rows
// [y0, y1). It is the unit of work the tiled/parallel detector
// dispatches; the sequential path calls it once with the full row
// range. border pixels are skipped so descriptor sampling stays in
// bounds.
func DetectFAST(im *img.Gray, t int, border int, y0, y1 int) []rawCorner {
	return AppendFAST(nil, im, t, border, y0, y1)
}

// AppendFAST is DetectFAST appending into a caller-owned slice, so a
// per-frame detector can reuse its strip result buffers across frames
// instead of growing fresh ones. Non-max suppression sees only the
// strip's own rows, so the corners found depend on how the image is
// cut into strips. A negative threshold is treated as 0.
func AppendFAST(dst []rawCorner, im *img.Gray, t int, border int, y0, y1 int) []rawCorner {
	if border < 3 {
		border = 3
	}
	if y0 < border {
		y0 = border
	}
	if y1 > im.H-border {
		y1 = im.H - border
	}
	w := im.W
	// No 8-bit difference exceeds 255.
	if y0 >= y1 || w <= 2*border || t > 255 {
		return dst
	}
	if t < 0 {
		t = 0
	}
	var offsets [16]int
	for i, o := range circle16 {
		offsets[i] = o[1]*w + o[0]
	}
	var tab polarityTable
	tab.fill(t)
	pix := im.Pix
	ss := stripPool.Get().(*stripScratch)
	if need := (y1 - y0 + 2) * w; len(ss.scores) < need {
		ss.scores = make([]int32, need)
	}
	scores := ss.scores
	cands := ss.cands[:0]
	// First pass: score every corner candidate in the strip. The
	// pre-test runs on eight centres at a time; the row's last span%8
	// centres, whose word loads would run past the strip, are loaded
	// byte by byte into zeroed words, whose empty lanes never pass.
	span := w - 2*border
	t1 := uint64(t+1) * lanes16
	for y := y0; y < y1; y++ {
		base := y*w + border
		for i := 0; i < span; i += 8 {
			idx := base + i
			var pass uint64
			if n := span - i; n >= 8 {
				pass = fastPreTest8(img.Load8(pix, idx), img.Load8(pix, idx-3*w), img.Load8(pix, idx+3),
					img.Load8(pix, idx+3*w), img.Load8(pix, idx-3), t1)
			} else {
				pass = fastPreTest8(loadN(pix, idx, n), loadN(pix, idx-3*w, n), loadN(pix, idx+3, n),
					loadN(pix, idx+3*w, n), loadN(pix, idx-3, n), t1)
			}
			for ; pass != 0; pass &= pass - 1 {
				j := bits.TrailingZeros64(pass) >> 3
				if s := fastScore(pix, idx+j, t, &offsets, &tab); s > 0 {
					x := border + i + j
					scores[(y-y0+1)*w+x] = int32(s)
					cands = append(cands, rawCorner{x: int32(x), y: int32(y), score: int32(s)})
				}
			}
		}
	}
	// Non-max suppression within the strip (3x3 neighbourhood). A
	// corner survives if it is strictly greater than the neighbours
	// later in scan order and not smaller than the earlier ones — the
	// standard tie-break that keeps exactly one of two equal adjacent
	// scores.
	for _, c := range cands {
		s := c.score
		mid := (int(c.y)-y0+1)*w + int(c.x)
		up, down := scores[mid-w-1:mid-w+2], scores[mid+w-1:mid+w+2]
		if up[0] >= s || up[1] >= s || up[2] >= s ||
			scores[mid-1] >= s ||
			scores[mid+1] > s ||
			down[0] > s || down[1] > s || down[2] > s {
			continue
		}
		dst = append(dst, c)
	}
	// Scrub only the written score cells so the pooled plane comes
	// back zeroed for the next strip, whatever its width.
	for _, c := range cands {
		scores[(int(c.y)-y0+1)*w+int(c.x)] = 0
	}
	ss.cands = cands
	stripPool.Put(ss)
	return dst
}
