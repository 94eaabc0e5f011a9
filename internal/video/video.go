// Package video implements the frame transport codecs of Table 3: a
// standalone image codec (the PNG-transfer baseline) and a motion-
// style video codec with intra frames and deadzone-quantized inter
// frames (the H.264 substitute — see DESIGN.md). Both are built on
// stdlib DEFLATE; what matters for the experiment is the bandwidth
// ratio between shipping independent images and shipping a redundancy-
// exploiting stream, which the inter coding reproduces.
package video

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"slamshare/internal/img"
)

// ErrCorrupt is returned when a payload cannot be decoded.
var ErrCorrupt = errors.New("video: corrupt payload")

const (
	frameIntra = 1
	frameInter = 2
)

// The codec runs per frame on every client stream, so its transient
// buffers — and above all the DEFLATE compressor state, which is far
// larger than any frame — are pooled rather than reallocated 30 times
// a second. Pools are safe for concurrent streams; the stateful
// per-stream scratch (prediction images, residuals) lives on the
// Encoder/Decoder instead.
var (
	scratchPool = sync.Pool{New: func() any { return new([]byte) }}
	deflFast    = sync.Pool{New: func() any {
		zw, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
		return zw
	}}
	deflInter = sync.Pool{New: func() any {
		zw, _ := flate.NewWriter(io.Discard, interLevel)
		return zw
	}}
	inflPool = sync.Pool{New: func() any {
		return flate.NewReader(bytes.NewReader(nil))
	}}
)

// interLevel is the DEFLATE level of inter payloads. With P-skip the
// match search over the residual plane is the encoder's largest stage;
// level 4 costs 1.8 % more bytes than the default 6 on MH04 and a
// fifth less time per eye (CHANGES.md has the measured table).
const interLevel = 4

// getBuf returns a length-n scratch slice; callers must fully
// overwrite it and hand it back with putBuf.
func getBuf(n int) *[]byte {
	p := scratchPool.Get().(*[]byte)
	if cap(*p) < n {
		*p = make([]byte, n)
	}
	*p = (*p)[:n]
	return p
}

func putBuf(p *[]byte) { scratchPool.Put(p) }

// EncodeImage compresses a single frame independently (the image-
// transfer baseline): horizontal-predictor filtering + DEFLATE,
// PNG-style.
func EncodeImage(f *img.Gray) []byte { return encodeImage(f, 0) }

// newPayload starts a payload: its 9-byte header, in a buffer with room
// for an eighth more than prevLen, the length of the stream's previous
// payload of this kind (0 if there was none) — so a stream in steady
// state does not grow every payload by doubling.
func newPayload(kind byte, w, h, prevLen int) *bytes.Buffer {
	header := make([]byte, 9, 9+prevLen+prevLen/8)
	header[0] = kind
	binary.LittleEndian.PutUint32(header[1:], uint32(w))
	binary.LittleEndian.PutUint32(header[5:], uint32(h))
	return bytes.NewBuffer(header)
}

func encodeImage(f *img.Gray, prevLen int) []byte {
	fp := getBuf(len(f.Pix))
	filtered := *fp
	for y := 0; y < f.H; y++ {
		row := f.Row(y)
		out := filtered[y*f.W : (y+1)*f.W]
		prev := byte(0)
		for x, v := range row {
			out[x] = v - prev
			prev = v
		}
	}
	buf := newPayload(frameIntra, f.W, f.H, prevLen)
	zw := deflFast.Get().(*flate.Writer)
	zw.Reset(buf)
	zw.Write(filtered)
	zw.Close()
	deflFast.Put(zw)
	putBuf(fp)
	return buf.Bytes()
}

// DecodeImage reverses EncodeImage.
func DecodeImage(data []byte) (*img.Gray, error) {
	f, kind, err := decodePayload(data, nil)
	if err != nil {
		return nil, err
	}
	if kind != frameIntra {
		return nil, fmt.Errorf("%w: expected intra frame", ErrCorrupt)
	}
	return f, nil
}

// Encoder is a stateful video encoder: intra frames every GOP frames,
// deadzone-quantized difference frames in between. It keeps the
// decoder-side reconstruction so quantization error does not drift.
type Encoder struct {
	// GOP is the intra-frame interval (group of pictures length).
	GOP int
	// Deadzone zeroes inter-frame differences with magnitude <= this
	// value; it is what buys the video-versus-image bandwidth ratio by
	// discarding sensor noise while preserving scene structure.
	Deadzone int

	count int
	recon *img.Gray

	// Per-stream scratch reused across frames: the retired
	// reconstruction becomes the next frame's prediction buffer, and
	// the MV/residual slices keep their capacity.
	spare *img.Gray
	mvs   []byte
	diff  []byte

	// Lengths of the stream's previous intra and inter payloads, which
	// size the next one's buffer.
	intraLen, interLen int
}

// NewEncoder returns an encoder with the experiment defaults
// (GOP 30 — one intra per second at 30 FPS — and a deadzone of 3x the
// renderer's noise sigma).
func NewEncoder() *Encoder {
	return &Encoder{GOP: 30, Deadzone: 5}
}

// Reset restarts the stream: the next frame encodes intra, with no
// reference to earlier frames. Clients call it when (re)connecting so
// a fresh server-side decoder has a reference to start from.
func (e *Encoder) Reset() {
	e.recon = nil
	e.count = 0
}

// blockSize is the motion-compensation block edge in pixels.
const blockSize = 8

// mvRange is the per-block motion search radius around the predictor.
const mvRange = 3

// Encode compresses the next frame of the stream.
func (e *Encoder) Encode(f *img.Gray) []byte {
	if e.GOP <= 0 {
		e.GOP = 30
	}
	isIntra := e.recon == nil || e.count%e.GOP == 0 ||
		e.recon.W != f.W || e.recon.H != f.H
	e.count++
	if isIntra {
		data := encodeImage(f, e.intraLen)
		e.intraLen = len(data)
		if e.recon != nil && e.recon.W == f.W && e.recon.H == f.H {
			copy(e.recon.Pix, f.Pix)
		} else {
			e.recon = f.Clone()
		}
		return data
	}
	// Inter frame: per-block motion compensation against the
	// reconstruction, then a deadzone-quantized residual. Because the
	// renderer's landmark patches translate rigidly between frames,
	// block matching captures almost all the signal, leaving only
	// sensor noise (killed by the deadzone) and dis/occlusions. Most
	// blocks of a frame did not move at all: those are settled by
	// skipVector and never searched.
	w, h := f.W, f.H
	bw := (w + blockSize - 1) / blockSize
	bh := (h + blockSize - 1) / blockSize
	gx, gy := globalMotion(e.recon, f)
	if cap(e.mvs) < bw*bh*2 {
		e.mvs = make([]byte, bw*bh*2)
	}
	mvs := e.mvs[:bw*bh*2] // per-block (dx+64, dy+64)
	pred := e.spare
	if pred == nil || pred.W != w || pred.H != h {
		pred = img.New(w, h)
	}
	e.spare = nil
	dz := e.Deadzone
	for by := 0; by < bh; by++ {
		for bx := 0; bx < bw; bx++ {
			x0, y0 := bx*blockSize, by*blockSize
			dx, dy, skip := skipVector(e.recon, f, x0, y0, gx, gy, dz)
			if !skip {
				dx, dy = bestMV(e.recon, f, x0, y0, gx, gy)
			}
			mvs[(by*bw+bx)*2] = byte(dx + 64)
			mvs[(by*bw+bx)*2+1] = byte(dy + 64)
			copyBlock(pred, e.recon, x0, y0, dx, dy)
		}
	}
	if cap(e.diff) < 2*len(f.Pix) {
		e.diff = make([]byte, 2*len(f.Pix))
	}
	diff := e.diff[:2*len(f.Pix)]
	for i, v := range f.Pix {
		d := int(v) - int(pred.Pix[i])
		if d <= dz && d >= -dz {
			d = 0
		}
		// Signed 16-bit residual: full range, so reconstruction error
		// is bounded by the deadzone everywhere.
		binary.LittleEndian.PutUint16(diff[2*i:], uint16(int16(d)))
		pred.Pix[i] = byte(int(pred.Pix[i]) + d)
	}
	e.spare = e.recon // retired reference becomes next frame's pred buffer
	e.recon = pred
	// Delta-code motion vectors against the previous block: panning
	// scenes have long runs of equal vectors, which DEFLATE then
	// collapses.
	for i := len(mvs) - 2; i >= 2; i -= 2 {
		mvs[i] -= mvs[i-2]
		mvs[i+1] -= mvs[i-1]
	}
	buf := newPayload(frameInter, w, h, e.interLen)
	zw := deflInter.Get().(*flate.Writer)
	zw.Reset(buf)
	zw.Write(mvs)
	zw.Write(diff)
	zw.Close()
	deflInter.Put(zw)
	e.interLen = buf.Len()
	return buf.Bytes()
}

// EncodeStereo encodes one stereo pair on its two streams at the same
// time — the streams share no state, like the per-camera hardware
// encoder sessions of the paper's devices — and returns when both
// payloads are complete. A nil right image (a mono rig) encodes the
// left eye on the caller and returns a nil right payload.
func EncodeStereo(encL, encR *Encoder, left, right *img.Gray) (l, r []byte) {
	if right == nil {
		return encL.Encode(left), nil
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		r = encR.Encode(right)
	}()
	l = encL.Encode(left)
	<-done
	return l, r
}

// globalMotion estimates the dominant integer translation between the
// previous reconstruction and the new frame by coarse SAD search on
// 4x-downsampled images.
func globalMotion(prev, cur *img.Gray) (int, int) {
	const ds = 4
	pw, ph := prev.W/ds, prev.H/ds
	ap, bp := getBuf(pw*ph), getBuf(pw*ph)
	defer putBuf(ap)
	defer putBuf(bp)
	small := func(src *img.Gray, out []byte) []byte {
		for y := 0; y < ph; y++ {
			for x := 0; x < pw; x++ {
				out[y*pw+x] = src.Pix[y*ds*src.W+x*ds]
			}
		}
		return out
	}
	a := small(prev, *ap)
	b := small(cur, *bp)
	bestDX, bestDY, bestSAD := 0, 0, 1<<62
	for dy := -2; dy <= 2; dy++ {
		for dx := -2; dx <= 2; dx++ {
			sad := 0
			for y := 4; y < ph-4; y += 2 {
				for x := 4; x < pw-4; x += 2 {
					sx, sy := x+dx, y+dy
					d := int(a[sy*pw+sx]) - int(b[y*pw+x])
					if d < 0 {
						d = -d
					}
					sad += d
				}
			}
			if sad < bestSAD {
				bestSAD, bestDX, bestDY = sad, dx, dy
			}
		}
	}
	return bestDX * ds, bestDY * ds
}

// mvLimit clamps motion vectors so they fit the byte they are coded in.
const mvLimit = 60

// mvInRange reports whether a vector fits the byte it is coded in.
func mvInRange(dx, dy int) bool {
	return dx >= -mvLimit && dx <= mvLimit && dy >= -mvLimit && dy <= mvLimit
}

// skipVector is the P-skip decision. It tries bestMV's two starting
// vectors in bestMV's order — zero motion, then the global predictor —
// and reports the first at which the whole block already lies within
// the deadzone of the reference. There the block's residual is all
// zeros, which no vector a search could return improves on, so the
// search is skipped; what changes is only which of the vectors with an
// all-zero residual gets coded, and the decoder reads a vector like
// any other.
func skipVector(prev, cur *img.Gray, x0, y0, gx, gy, dz int) (dx, dy int, ok bool) {
	if withinDeadzone(prev, cur, x0, y0, 0, 0, dz) {
		return 0, 0, true
	}
	if mvInRange(gx, gy) && withinDeadzone(prev, cur, x0, y0, gx, gy, dz) {
		return gx, gy, true
	}
	return 0, 0, false
}

// withinDeadzone reports whether every pixel of the block at (x0, y0)
// in cur is within dz of prev displaced by (dx, dy), stopping at the
// first that is not. Out-of-bounds reference pixels are treated as 0,
// as blockSADRef and copyBlockRef treat them.
func withinDeadzone(prev, cur *img.Gray, x0, y0, dx, dy, dz int) bool {
	for y := y0; y < y0+blockSize && y < cur.H; y++ {
		sy := y + dy
		for x := x0; x < x0+blockSize && x < cur.W; x++ {
			var pv byte
			sx := x + dx
			if sx >= 0 && sy >= 0 && sx < prev.W && sy < prev.H {
				pv = prev.Pix[sy*prev.W+sx]
			}
			if d := int(pv) - int(cur.Pix[y*cur.W+x]); d > dz || d < -dz {
				return false
			}
		}
	}
	return true
}

// bestMV finds the block motion vector minimizing SAD, trying zero
// motion, the global predictor, and up to two rounds of local
// refinement around the best so far.
//
// Each vector is scored once. One that lost scored at least the best
// of its time, and the best only falls; a tie keeps the earlier vector
// because the comparison is strict. So scoring it again can never
// change the outcome, and a map of the window the two rounds can reach
// (2*mvRange around the first centre) skips where they overlap without
// touching the order in which the rest are tried.
func bestMV(prev, cur *img.Gray, x0, y0, gx, gy int) (int, int) {
	bx, by := 0, 0
	bestSAD := blockSAD(prev, cur, x0, y0, 0, 0, 1<<30)
	if mvInRange(gx, gy) {
		if s := blockSAD(prev, cur, x0, y0, gx, gy, bestSAD); s < bestSAD {
			bestSAD, bx, by = s, gx, gy
		}
	}
	const span = 4*mvRange + 1
	var seen [span * span]bool
	ox, oy := bx-2*mvRange, by-2*mvRange // the window's corner
	// first records a vector and reports whether it is new. Only the
	// two starting vectors can lie outside the window.
	first := func(dx, dy int) bool {
		i, j := dx-ox, dy-oy
		if i < 0 || i >= span || j < 0 || j >= span {
			return true
		}
		was := seen[j*span+i]
		seen[j*span+i] = true
		return !was
	}
	first(0, 0)
	first(gx, gy)
	for r := 0; r < 2 && bestSAD > 0; r++ {
		cx, cy := bx, by
		for dy := cy - mvRange; dy <= cy+mvRange; dy++ {
			for dx := cx - mvRange; dx <= cx+mvRange; dx++ {
				if !first(dx, dy) || !mvInRange(dx, dy) {
					continue
				}
				if s := blockSAD(prev, cur, x0, y0, dx, dy, bestSAD); s < bestSAD {
					if s == 0 {
						return dx, dy // nothing scores below zero
					}
					bestSAD, bx, by = s, dx, dy
				}
			}
		}
		if cx == bx && cy == by {
			break
		}
	}
	return bx, by
}

// interior reports whether the block at (x0, y0) — a block origin, so
// never negative — lies inside a and its displacement by (dx, dy)
// inside b. It holds for all but the border ring of blocks, and it is
// the condition under which a block row is eight contiguous bytes in
// both images.
func interior(a, b *img.Gray, x0, y0, dx, dy int) bool {
	sx, sy := x0+dx, y0+dy
	return x0+blockSize <= a.W && y0+blockSize <= a.H &&
		sx >= 0 && sy >= 0 && sx+blockSize <= b.W && sy+blockSize <= b.H
}

// blockSAD computes the sum of absolute differences of the block at
// (x0, y0) in cur against prev displaced by (dx, dy), aborting early
// past limit. Out-of-bounds reference pixels are treated as 0.
func blockSAD(prev, cur *img.Gray, x0, y0, dx, dy, limit int) int {
	if !interior(cur, prev, x0, y0, dx, dy) {
		return blockSADRef(prev, cur, x0, y0, dx, dy, limit)
	}
	co, po := y0*cur.W+x0, (y0+dy)*prev.W+x0+dx
	sad := 0
	for r := 0; r < blockSize; r++ {
		sad += img.SAD8(img.Load8(prev.Pix, po), img.Load8(cur.Pix, co))
		if sad > limit {
			return sad
		}
		co += cur.W
		po += prev.W
	}
	return sad
}

// blockSADRef is blockSAD pixel by pixel: the path for border blocks
// and references that leave the image, and the oracle the fast path is
// tested against.
func blockSADRef(prev, cur *img.Gray, x0, y0, dx, dy, limit int) int {
	sad := 0
	for y := y0; y < y0+blockSize && y < cur.H; y++ {
		sy := y + dy
		for x := x0; x < x0+blockSize && x < cur.W; x++ {
			var pv byte
			sx := x + dx
			if sx >= 0 && sy >= 0 && sx < prev.W && sy < prev.H {
				pv = prev.Pix[sy*prev.W+sx]
			}
			d := int(pv) - int(cur.Pix[y*cur.W+x])
			if d < 0 {
				d = -d
			}
			sad += d
		}
		if sad > limit {
			return sad
		}
	}
	return sad
}

// copyBlock writes the motion-compensated prediction of one block.
func copyBlock(dst, src *img.Gray, x0, y0, dx, dy int) {
	if !interior(dst, src, x0, y0, dx, dy) {
		copyBlockRef(dst, src, x0, y0, dx, dy)
		return
	}
	do, so := y0*dst.W+x0, (y0+dy)*src.W+x0+dx
	for r := 0; r < blockSize; r++ {
		copy(dst.Pix[do:do+blockSize], src.Pix[so:so+blockSize])
		do += dst.W
		so += src.W
	}
}

// copyBlockRef is copyBlock pixel by pixel, zero-filling what the
// reference does not cover.
func copyBlockRef(dst, src *img.Gray, x0, y0, dx, dy int) {
	for y := y0; y < y0+blockSize && y < dst.H; y++ {
		sy := y + dy
		for x := x0; x < x0+blockSize && x < dst.W; x++ {
			var pv byte
			sx := x + dx
			if sx >= 0 && sy >= 0 && sx < src.W && sy < src.H {
				pv = src.Pix[sy*src.W+sx]
			}
			dst.Pix[y*dst.W+x] = pv
		}
	}
}

// Decoder reconstructs the frame stream produced by an Encoder.
type Decoder struct {
	recon *img.Gray
}

// NewDecoder returns a fresh decoder.
func NewDecoder() *Decoder { return &Decoder{} }

// Decode reconstructs the next frame. Inter frames require that the
// preceding frames were decoded in order.
func (d *Decoder) Decode(data []byte) (*img.Gray, error) {
	f, _, err := decodePayload(data, d.recon)
	if err != nil {
		return nil, err
	}
	// The caller owns the returned frame, so the reference copy reuses
	// the previous reconstruction's storage instead of cloning.
	if d.recon != nil && d.recon.W == f.W && d.recon.H == f.H {
		copy(d.recon.Pix, f.Pix)
	} else {
		d.recon = f.Clone()
	}
	return f, nil
}

// DEFLATE cannot expand its input more than 1032:1 (a 258-byte match
// costs at least two bits), so a header that declares more than that,
// plus a little slack, is lying about its payload.
const (
	maxInflate   = 1032
	inflateSlack = 64
)

// decodePayload parses either frame kind. For inter frames, prev must
// be the current reconstruction.
func decodePayload(data []byte, prev *img.Gray) (*img.Gray, byte, error) {
	if len(data) < 9 {
		return nil, 0, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	kind := data[0]
	w := int(binary.LittleEndian.Uint32(data[1:]))
	h := int(binary.LittleEndian.Uint32(data[5:]))
	if w <= 0 || h <= 0 || w > 1<<14 || h > 1<<14 {
		return nil, 0, fmt.Errorf("%w: bad dimensions %dx%d", ErrCorrupt, w, h)
	}
	// The inflated size the header promises, checked against what the
	// payload can deliver before anything is allocated for it: both
	// ends of the uplink decode bytes straight off the network.
	bw := (w + blockSize - 1) / blockSize
	bh := (h + blockSize - 1) / blockSize
	var plane int
	switch kind {
	case frameIntra:
		plane = w * h
	case frameInter:
		if prev == nil || prev.W != w || prev.H != h {
			return nil, 0, fmt.Errorf("%w: inter frame without reference", ErrCorrupt)
		}
		plane = bw*bh*2 + 2*w*h
	default:
		return nil, 0, fmt.Errorf("%w: unknown frame kind %d", ErrCorrupt, kind)
	}
	if int64(plane) > maxInflate*int64(len(data)-9)+inflateSlack {
		return nil, 0, fmt.Errorf("%w: %d payload bytes cannot inflate to %dx%d", ErrCorrupt, len(data)-9, w, h)
	}
	zr := inflPool.Get().(io.ReadCloser)
	zr.(flate.Resetter).Reset(bytes.NewReader(data[9:]), nil)
	defer func() {
		zr.Close()
		inflPool.Put(zr)
	}()
	out := img.New(w, h)
	switch kind {
	case frameIntra:
		rp := getBuf(w * h)
		defer putBuf(rp)
		raw := *rp
		if _, err := io.ReadFull(zr, raw); err != nil {
			return nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		for y := 0; y < h; y++ {
			prevV := byte(0)
			row := raw[y*w : (y+1)*w]
			orow := out.Row(y)
			for x, v := range row {
				prevV += v
				orow[x] = prevV
			}
		}
	case frameInter:
		pp := getBuf(plane)
		defer putBuf(pp)
		payload := *pp
		if _, err := io.ReadFull(zr, payload); err != nil {
			return nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		mvs := payload[:bw*bh*2]
		for i := 2; i < len(mvs); i += 2 {
			mvs[i] += mvs[i-2]
			mvs[i+1] += mvs[i-1]
		}
		raw := payload[bw*bh*2:]
		for by := 0; by < bh; by++ {
			for bx := 0; bx < bw; bx++ {
				dx := int(mvs[(by*bw+bx)*2]) - 64
				dy := int(mvs[(by*bw+bx)*2+1]) - 64
				copyBlock(out, prev, bx*blockSize, by*blockSize, dx, dy)
			}
		}
		for i := 0; i < w*h; i++ {
			d := int(int16(binary.LittleEndian.Uint16(raw[2*i:])))
			out.Pix[i] = byte(int(out.Pix[i]) + d)
		}
	}
	return out, kind, nil
}

// IsIntra reports whether payload is an intra frame: one a decoder
// reconstructs with no reference, so a stream may be joined there. It
// reads the header only — a relay asks it of bytes it never decodes —
// and is false for anything too short to be a payload or of another
// kind.
func IsIntra(payload []byte) bool {
	return len(payload) >= 9 && payload[0] == frameIntra
}

// StreamStats summarizes an encoded stream.
type StreamStats struct {
	Frames     int
	TotalBytes int
}

// BitrateMbps returns the stream bitrate at the given frame rate in
// megabits per second.
func (s StreamStats) BitrateMbps(fps float64) float64 {
	if s.Frames == 0 {
		return 0
	}
	bytesPerFrame := float64(s.TotalBytes) / float64(s.Frames)
	return bytesPerFrame * 8 * fps / 1e6
}
