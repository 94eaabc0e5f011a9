package video

import (
	"encoding/binary"

	"slamshare/internal/img"
)

// The inter frame layout (kind 4): one range-coded stream behind the
// header. It holds every block's vector and flag, in raster order, then
// the residuals of the coded blocks, so that the decoder can predict
// the whole frame between the two:
//
//   - a decision that the block is plain: its vector (dx+64, dy+64) is
//     the previous block's and it carries no residual. Most blocks are,
//     so most cost this one decision;
//   - for a block that is not: a decision that its vector is the
//     previous block's, in which case it carries a residual. If not:
//     where the block above has another vector, a decision that it is
//     that one; if not, each vector byte's difference from the previous
//     block's, as a signed byte; then the coded flag;
//   - for a coded block, its residual row by row: a decision that the
//     row is all zero; if not, each pixel's, a decision that it is
//     zero and, if not, a decision for its sign, then its magnitude
//     less one, 0..127, in seven direct bits.
//
// "The previous block" of the first is a zero vector. Each decision
// has its own context, as interModel lists them, so that what its
// neighbours already told the decoder sets its probability.

// A residual's magnitude is coded direct: the magnitudes of real
// frames are close to uniform, so on MH04 seven adaptive decisions
// through a binary tree pack only 1.4 % fewer bytes than seven direct
// bits, and the decoder takes half as long again over the frame: their
// branches mispredict about half the time, where the direct bits cost
// one division.

// interModel holds the adaptive probabilities of one payload.
type interModel struct {
	// plain: by whether the previous block and the block above are.
	plain [4]prob
	// mvSame: the vector equals the previous block's; by whether the
	// block above has that vector too.
	mvSame [2]prob
	// mvAbove: the vector equals the block above's.
	mvAbove prob
	// mvDelta codes the differences of dx and dy.
	mvDelta [2]signedModel
	// coded: a block with a new vector carries a residual; by whether
	// the previous block and the block above do.
	coded [4]prob
	// rowZero: a residual row is all zero; first row, or after a zero
	// or a nonzero row.
	rowZero [3]prob
	// pixZero: a pixel of a nonzero row is zero; by whether its left
	// and upper neighbours in the block are.
	pixZero [4]prob
	// sign: a nonzero residual is negative; by its left neighbour's
	// sign, or its being zero.
	sign [3]prob
}

// signedModel codes a signed byte: a zero decision, then its sign and
// its magnitude less one through a binary tree over the 7 bits.
type signedModel struct {
	zero prob
	sign prob
	mag  [128]prob
}

// reset sets every probability to one half, as a payload starts.
func (m *interModel) reset() {
	fill := func(ps []prob) {
		for i := range ps {
			ps[i] = probHalf
		}
	}
	fill(m.plain[:])
	fill(m.mvSame[:])
	m.mvAbove = probHalf
	for i := range m.mvDelta {
		s := &m.mvDelta[i]
		s.zero, s.sign = probHalf, probHalf
		fill(s.mag[:])
	}
	fill(m.coded[:])
	fill(m.rowZero[:])
	fill(m.pixZero[:])
	fill(m.sign[:])
}

// encode codes any byte v: zero, or sign and magnitude.
func (s *signedModel) encode(e *rcEncoder, v byte) {
	if v == 0 {
		e.encode(&s.zero, 0)
		return
	}
	e.encode(&s.zero, 1)
	e.encode(&s.sign, uint32(v>>7))
	e.encodeTree(s.mag[:], magMinus1(v), 7)
}

func (s *signedModel) decode(d *rcDecoder) byte {
	if d.decode(&s.zero) == 0 {
		return 0
	}
	neg := d.decode(&s.sign)
	return withSign(byte(d.decodeTree(s.mag[:], 7)+1), neg)
}

// magMinus1 is the magnitude less one of the nonzero signed byte v,
// 0..127.
func magMinus1(v byte) uint32 {
	if v >= 0x80 {
		v = -v
	}
	return uint32(v - 1)
}

// withSign is the signed byte of magnitude x, negative if neg is 1.
func withSign(x byte, neg uint32) byte {
	if neg != 0 {
		return -x
	}
	return x
}

// b2u is 1 for true and 0 for false.
func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// mvAt is block i's vector, its two bytes as one value.
func mvAt(mvs []byte, i int) uint16 { return binary.LittleEndian.Uint16(mvs[2*i:]) }

// predMV is the vector block i is predicted from: its predecessor's,
// or the zero vector for the first.
func predMV(mvs []byte, i int) uint16 {
	if i == 0 {
		return 64 | 64<<8
	}
	return mvAt(mvs, i-1)
}

// blockCtx is the context of block i's plain decision, given whether
// the previous block was plain, and whether the block above has the
// previous block's vector.
func blockCtx(mvs, coded []byte, i, bx, bw int, prevPlain bool) (plainCtx uint32, aboveSame bool) {
	plainCtx = b2u(bx > 0 && prevPlain)
	if i >= bw {
		j := i - bw
		a := mvAt(mvs, j)
		if coded[j] == 0 && a == predMV(mvs, j) {
			plainCtx += 2
		}
		aboveSame = a == mvAt(mvs, i-1)
	}
	return plainCtx, aboveSame
}

// codedCtx is the context of block i's coded flag.
func codedCtx(coded []byte, i, bx, bw int) byte {
	var c byte
	if bx > 0 {
		c = coded[i-1]
	}
	if i >= bw {
		c += 2 * coded[i-bw]
	}
	return c
}

// signCtx is the sign context a residual's left neighbour sets.
func signCtx(left byte) byte {
	if left == 0 {
		return 0
	}
	return 1 + left>>7
}

// encodeInter appends the range-coded planes of a w×h inter frame to
// dst, coding them with e: mvs holds each block's (dx+64, dy+64),
// coded its flag (0 or 1), and resid the residuals of the coded
// blocks, in block order, each block's rows in turn.
func encodeInter(e *rcEncoder, dst []byte, w, h int, mvs, coded, resid []byte) []byte {
	bw := (w + blockSize - 1) / blockSize
	bh := (h + blockSize - 1) / blockSize
	var m interModel
	m.reset()
	e.reset()
	// The blocks' vectors and flags.
	prevPlain := false
	for i, by := 0, 0; by < bh; by++ {
		for bx := 0; bx < bw; bx, i = bx+1, i+1 {
			plainCtx, aboveSame := blockCtx(mvs, coded, i, bx, bw, prevPlain)
			v, p := mvAt(mvs, i), predMV(mvs, i)
			plain := v == p && coded[i] == 0
			prevPlain = plain
			e.encode(&m.plain[plainCtx], b2u(!plain))
			if plain {
				continue
			}
			e.encode(&m.mvSame[b2u(aboveSame)], b2u(v != p))
			if v == p {
				continue
			}
			asAbove := false
			if by > 0 && !aboveSame {
				asAbove = v == mvAt(mvs, i-bw)
				e.encode(&m.mvAbove, b2u(asAbove))
			}
			if !asAbove {
				m.mvDelta[0].encode(e, byte(v)-byte(p))
				m.mvDelta[1].encode(e, byte(v>>8)-byte(p>>8))
			}
			e.encode(&m.coded[codedCtx(coded, i, bx, bw)], uint32(coded[i]))
		}
	}
	// The residuals of the coded blocks.
	for i, c := range coded {
		if c == 0 {
			continue
		}
		x0, y0 := i%bw*blockSize, i/bw*blockSize
		x1, y1 := blockEnd(x0, y0, w, h)
		bwid := x1 - x0
		var up []byte // the row above in the block; nil for the first
		rctx := 0
		for y := y0; y < y1; y++ {
			row := resid[:bwid]
			resid = resid[bwid:]
			zero := true
			for _, v := range row {
				if v != 0 {
					zero = false
					break
				}
			}
			e.encode(&m.rowZero[rctx], b2u(!zero))
			if zero {
				rctx = 1
				up = nil
				continue
			}
			rctx = 2
			var left byte
			for x, v := range row {
				pctx := b2u(left != 0)
				if up != nil && up[x] != 0 {
					pctx += 2
				}
				e.encode(&m.pixZero[pctx], b2u(v != 0))
				if v != 0 {
					e.encode(&m.sign[signCtx(left)], uint32(v>>7))
					e.encodeDirect(magMinus1(v), 7)
				}
				left = v
			}
			up = row
		}
	}
	return e.finish(dst)
}

// decodeInter reconstructs a w×h inter frame from the range-coded
// planes of an n-byte payload (at least rcFlush bytes) into out,
// predicting from prev; src holds the payload and then rcPad zeros. It
// leaves each block's vector bytes and flag in mvs and coded, and
// reports false unless the payload was read to its last byte and not
// past it.
func decodeInter(src []byte, n int, prev, out *img.Gray, mvs, coded []byte) bool {
	w, h := out.W, out.H
	bw := (w + blockSize - 1) / blockSize
	bh := (h + blockSize - 1) / blockSize
	var m interModel
	m.reset()
	d := newRCDecoder(src, n)
	prevPlain := false
	for i, by := 0, 0; by < bh; by++ {
		for bx := 0; bx < bw; bx, i = bx+1, i+1 {
			if d.overrun() {
				return false
			}
			plainCtx, aboveSame := blockCtx(mvs, coded, i, bx, bw, prevPlain)
			v := predMV(mvs, i)
			plain := d.decode(&m.plain[plainCtx]) == 0
			prevPlain = plain
			c := byte(1)
			if plain {
				c = 0
			} else if d.decode(&m.mvSame[b2u(aboveSame)]) != 0 {
				asAbove := false
				if by > 0 && !aboveSame {
					asAbove = d.decode(&m.mvAbove) != 0
				}
				if asAbove {
					v = mvAt(mvs, i-bw)
				} else {
					vx := byte(v) + m.mvDelta[0].decode(&d)
					vy := byte(v>>8) + m.mvDelta[1].decode(&d)
					v = uint16(vx) | uint16(vy)<<8
				}
				c = byte(d.decode(&m.coded[codedCtx(coded, i, bx, bw)]))
			}
			binary.LittleEndian.PutUint16(mvs[2*i:], v)
			coded[i] = c
		}
	}
	predict(out, prev, mvs, bw, bh)
	for i, c := range coded {
		if c == 0 {
			continue
		}
		if d.overrun() {
			return false
		}
		x0, y0 := i%bw*blockSize, i/bw*blockSize
		x1, y1 := blockEnd(x0, y0, w, h)
		var upRow [blockSize]byte
		up := false
		rctx := 0
		for y := y0; y < y1; y++ {
			if d.decode(&m.rowZero[rctx]) == 0 {
				rctx = 1
				up = false
				continue
			}
			rctx = 2
			row := out.Pix[y*w+x0 : y*w+x1]
			var left byte
			for x := range row {
				pctx := b2u(left != 0)
				if up && upRow[x] != 0 {
					pctx += 2
				}
				var v byte
				if d.decode(&m.pixZero[pctx]) != 0 {
					neg := d.decode(&m.sign[signCtx(left)])
					v = withSign(byte(d.decodeDirect(7)+1), neg)
					row[x] += v
				}
				upRow[x] = v
				left = v
			}
			up = true
		}
	}
	return d.consumed()
}

// predict writes every block's motion-compensated prediction into out.
// A run of blocks in a block row that share a vector and lie, with
// their reference, inside the images is copied a pixel row at a time.
func predict(out, prev *img.Gray, mvs []byte, bw, bh int) {
	w := out.W
	for by := 0; by < bh; by++ {
		y0 := by * blockSize
		for bx := 0; bx < bw; {
			i := by*bw + bx
			vx, vy := mvs[2*i], mvs[2*i+1]
			dx, dy := int(vx)-64, int(vy)-64
			x0 := bx * blockSize
			if !interior(out, prev, x0, y0, dx, dy) {
				copyBlockRef(out, prev, x0, y0, dx, dy)
				bx++
				continue
			}
			for bx++; bx < bw && mvs[2*(i+1)] == vx && mvs[2*(i+1)+1] == vy &&
				interior(out, prev, bx*blockSize, y0, dx, dy); bx++ {
				i++
			}
			n := bx*blockSize - x0
			for y := y0; y < y0+blockSize; y++ {
				so := (y+dy)*prev.W + x0 + dx
				copy(out.Pix[y*w+x0:y*w+x0+n], prev.Pix[so:so+n])
			}
		}
	}
}
