package feature

import (
	"math"

	"slamshare/internal/img"
)

const (
	// PatchRadius is the half-size of the descriptor sampling patch.
	PatchRadius = 15
	// Border is the minimum distance from the image edge for a
	// keypoint so orientation and descriptor sampling stay in bounds
	// after rotation.
	Border = 22
)

// briefPattern is the set of 256 point pairs sampled by the BRIEF
// descriptor, generated once from a fixed seed with an approximately
// Gaussian spatial distribution (sigma = PatchRadius/2), mirroring the
// learned pattern of ORB. The coordinates are whole numbers, held as
// float64 because the steering rotation consumes them as such.
var briefPattern [256][4]float64

// umax[|dy|] is the half-width of the circular patch on the row dy
// above or below its centre: the largest dx with dx*dx + dy*dy <=
// PatchRadius*PatchRadius.
var umax [PatchRadius + 1]int

func init() {
	s := uint64(0x5EEDDA7A)
	next := func() uint64 {
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	gauss := func() float64 {
		// Sum of 4 uniforms in [-1,1), scaled to sigma ~ radius/2,
		// clamped inside the patch.
		u := 0.0
		for i := 0; i < 4; i++ {
			u += float64(int64(next()%2000))/1000 - 1
		}
		v := u / 4 * float64(PatchRadius) * 1.2
		if v > PatchRadius-1 {
			v = PatchRadius - 1
		}
		if v < -(PatchRadius - 1) {
			v = -(PatchRadius - 1)
		}
		return float64(int8(v))
	}
	for i := range briefPattern {
		briefPattern[i] = [4]float64{gauss(), gauss(), gauss(), gauss()}
	}
	for dy := range umax {
		for umax[dy] = PatchRadius; umax[dy]*umax[dy]+dy*dy > PatchRadius*PatchRadius; umax[dy]-- {
		}
	}
}

// Orientation computes the intensity-centroid orientation of the patch
// around (x, y): the angle of the vector from the patch center to its
// intensity centroid, as in ORB. Pixels of the patch outside the image
// are left out of the moments.
func Orientation(im *img.Gray, x, y int) float64 {
	var m10, m01 int
	w := im.W
	if x >= PatchRadius && y >= PatchRadius && x < w-PatchRadius && y < im.H-PatchRadius {
		// The whole disc is inside the image: sum each row's span
		// straight off the pixel buffer.
		for dy := -PatchRadius; dy <= PatchRadius; dy++ {
			u := umax[max(dy, -dy)]
			row := im.Pix[(y+dy)*w+x-u : (y+dy)*w+x+u+1]
			sum, mom := 0, 0
			for i, p := range row {
				v := int(p)
				sum += v
				mom += i * v
			}
			m10 += mom - u*sum
			m01 += dy * sum
		}
		return math.Atan2(float64(m01), float64(m10))
	}
	for dy := -PatchRadius; dy <= PatchRadius; dy++ {
		yy := y + dy
		if yy < 0 || yy >= im.H {
			continue
		}
		row := im.Row(yy)
		u := umax[max(dy, -dy)]
		for dx := -u; dx <= u; dx++ {
			xx := x + dx
			if xx < 0 || xx >= w {
				continue
			}
			v := int(row[xx])
			m10 += dx * v
			m01 += dy * v
		}
	}
	return math.Atan2(float64(m01), float64(m10))
}

// describeReach bounds how far from the keypoint a steered pattern
// point can land: pattern coordinates are within PatchRadius-1 on each
// axis, so a rotated point is within (PatchRadius-1)*sqrt(2) < 19.8 of
// the centre and rounds to at most 20 on either axis.
const describeReach = 20

// roundInt is int(math.Round(v)) — round half away from zero — for
// |v| < 2^52, branch-free: doubling is exact, truncating 2v toward
// zero gives k with round(v) = (k+1)/2 for k >= 0 and (k-1)/2 for
// k < 0, Go's integer division truncating likewise.
func roundInt(v float64) int {
	k := int(v + v)
	return (k + (k>>63 | 1)) / 2
}

// steer rotates both sample points of pattern pair p by the keypoint
// orientation and rounds them to pixel offsets.
func steer(sin, cos float64, p *[4]float64) (ax, ay, bx, by int) {
	ax = roundInt(cos*p[0] - sin*p[1])
	ay = roundInt(sin*p[0] + cos*p[1])
	bx = roundInt(cos*p[2] - sin*p[3])
	by = roundInt(sin*p[2] + cos*p[3])
	return
}

// Describe computes the 256-bit rotated-BRIEF descriptor of the patch
// around (x, y) with the given orientation (radians). The point pairs
// of the pattern are steered by the orientation, making the descriptor
// rotation-invariant as in ORB. Sample points outside the image read
// as 0.
func Describe(im *img.Gray, x, y int, angle float64) Descriptor {
	sin, cos := math.Sincos(angle)
	var d Descriptor
	w := im.W
	if x >= describeReach && y >= describeReach && x < w-describeReach && y < im.H-describeReach && sin == sin {
		// Every steered sample lands inside the image (sin is NaN for a
		// non-finite angle, whose samples land anywhere) — the case for
		// any keypoint at least Border from the edge, so for all that
		// Extract describes: index the pixel buffer directly.
		pix := im.Pix[(y-describeReach)*w:]
		centre := describeReach*w + x
		for i := range briefPattern {
			ax, ay, bx, by := steer(sin, cos, &briefPattern[i])
			va := int(pix[centre+ay*w+ax])
			vb := int(pix[centre+by*w+bx])
			// va < vb as a bit: the sign of the difference.
			d[i>>6] |= uint64(va-vb) >> 63 << (uint(i) & 63)
		}
		return d
	}
	for i := range briefPattern {
		ax, ay, bx, by := steer(sin, cos, &briefPattern[i])
		if im.At(x+ax, y+ay) < im.At(x+bx, y+by) {
			d[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return d
}
