package video

import "slices"

// The entropy stage of inter frames: an adaptive binary range coder in
// the style of LZMA's, integer-only. Every symbol is a sequence of
// binary decisions, each coded against a probability that adapts to
// the decisions seen in its context; a payload's models all start at
// one half, so a payload decodes from its reference and its own bytes
// alone. encode and decode are small enough for the compiler to
// inline: they run a few times for every pixel of a coded block.

// prob is the adaptive probability, in units of 1/probOne, that the
// next decision in its context is 0.
type prob uint16

const (
	probBits = 11
	probOne  = 1 << probBits
	probHalf = prob(probOne / 2)
	// adaptShift is the adaptation rate: each decision moves its
	// probability 1/16 of the way to the side it took. The models
	// restart with every payload, so they must learn fast: on MH04 1/16
	// packs 0.4 % fewer bytes than LZMA's 1/32.
	adaptShift = 4
	// rcTop is the least range after normalisation. A probability stays
	// within 15..2033 of 2048, so a decision keeps more than 2^16 of a
	// range of 2^24 or more, and one byte of normalisation restores it.
	rcTop = 1 << 24
	// rcFlush is the number of bytes the encoder's flush leaves, and so
	// the least a range-coded payload can hold: the decoder reads them
	// to start.
	rcFlush = 4
)

// rcEncoder codes decisions into digits: each the top byte of low when
// the range is renormalised, plus, in bit 8, the carry that low's
// addition left for the digit before it. finish resolves the carries.
type rcEncoder struct {
	low    uint64
	rng    uint32
	digits []uint16
}

// reset starts a new payload, keeping the digits' storage.
func (e *rcEncoder) reset() {
	e.low, e.rng, e.digits = 0, 0xffffffff, e.digits[:0]
}

// encode codes one decision, bit 0 or 1, against p and adapts p.
func (e *rcEncoder) encode(p *prob, bit uint32) {
	bound := (e.rng >> probBits) * uint32(*p)
	if bit == 0 {
		e.rng = bound
		*p += (probOne - *p) >> adaptShift
	} else {
		e.low += uint64(bound)
		e.rng -= bound
		*p -= *p >> adaptShift
	}
	if e.rng < rcTop {
		e.rng <<= 8
		e.digits = append(e.digits, uint16(e.low>>24))
		e.low = e.low << 8 & 0xffffffff
	}
}

// encodeTree codes the low n bits of v, most significant first,
// through the binary tree of probabilities tree[1 : 1<<n].
func (e *rcEncoder) encodeTree(tree []prob, v uint32, n int) {
	m := uint32(1)
	for i := n - 1; i >= 0; i-- {
		bit := v >> i & 1
		e.encode(&tree[m], bit)
		m = m<<1 | bit
	}
}

// encodeDirect codes v, one of 1<<n equally likely values, n <= 8:
// one n-th power of two of the range each.
func (e *rcEncoder) encodeDirect(v uint32, n uint) {
	e.rng >>= n
	e.low += uint64(v) * uint64(e.rng)
	if e.rng < rcTop {
		e.rng <<= 8
		e.digits = append(e.digits, uint16(e.low>>24))
		e.low = e.low << 8 & 0xffffffff
	}
}

// finish flushes low's four bytes and appends the coded bytes to dst:
// the digits with each carry added into the digit before it. The coded
// value lies in [low, low+range) of an interval that starts as
// [0, 2^32), so no carry leaves the first digit.
func (e *rcEncoder) finish(dst []byte) []byte {
	e.digits = append(e.digits, uint16(e.low>>24), uint16(e.low>>16&0xff), uint16(e.low>>8&0xff), uint16(e.low&0xff))
	n := len(dst)
	dst = slices.Grow(dst, len(e.digits))[:n+len(e.digits)]
	out := dst[n:]
	carry := uint16(0)
	for i := len(e.digits) - 1; i >= 0; i-- {
		v := e.digits[i] + carry
		out[i] = byte(v)
		carry = v >> 8
	}
	return dst
}

// rcPad is how many zero bytes the decoder's source carries past the
// payload. One decision reads at most one byte, and a block is at most
// a few hundred decisions, so a decoder that checks before every block
// that it has not run past the payload never reads past the padding.
const rcPad = 1024

// rcDecoder reads the decisions an rcEncoder coded, from src: the
// payload's n bytes, then rcPad zero bytes. Past the payload it reads
// zeros; pos keeps counting, so a caller can tell a payload that was
// cut short from one that was read to its last byte.
type rcDecoder struct {
	code, rng uint32
	src       []byte
	pos, n    int
}

// newRCDecoder starts a decoder on the n payload bytes of src, which
// must hold at least rcFlush of them and rcPad zeros after them.
func newRCDecoder(src []byte, n int) rcDecoder {
	return rcDecoder{
		code: uint32(src[0])<<24 | uint32(src[1])<<16 | uint32(src[2])<<8 | uint32(src[3]),
		rng:  0xffffffff, src: src, pos: rcFlush, n: n,
	}
}

// decode reads one decision coded against p and adapts p as the
// encoder did.
func (d *rcDecoder) decode(p *prob) (bit uint32) {
	bound := (d.rng >> probBits) * uint32(*p)
	if d.code < bound {
		d.rng = bound
		*p += (probOne - *p) >> adaptShift
	} else {
		d.code -= bound
		d.rng -= bound
		*p -= *p >> adaptShift
		bit = 1
	}
	if d.rng < rcTop {
		d.rng <<= 8
		d.code = d.code<<8 | uint32(d.src[d.pos])
		d.pos++
	}
	return bit
}

// decodeTree reads n bits coded by encodeTree.
func (d *rcDecoder) decodeTree(tree []prob, n int) uint32 {
	m := uint32(1)
	for i := 0; i < n; i++ {
		m = m<<1 | d.decode(&tree[m])
	}
	return m - 1<<n
}

// decodeDirect reads a value coded by encodeDirect. A corrupt payload
// can yield one of n+1 bits or more.
func (d *rcDecoder) decodeDirect(n uint) uint32 {
	d.rng >>= n
	v := d.code / d.rng
	d.code -= v * d.rng
	if d.rng < rcTop {
		d.rng <<= 8
		d.code = d.code<<8 | uint32(d.src[d.pos])
		d.pos++
	}
	return v
}

// overrun reports whether the decoder has read past the payload.
func (d *rcDecoder) overrun() bool { return d.pos > d.n }

// consumed reports whether the decoder read the payload to its last
// byte and not past it.
func (d *rcDecoder) consumed() bool { return d.pos == d.n }
