package video

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"

	"slamshare/internal/camera"
	"slamshare/internal/dataset"
	"slamshare/internal/img"
)

// The golden hashes pin the bitstream and the decoded pixels. A run
// prints the hashes it computed (`go test -run TestGoldenStreams -v
// ./internal/video/`). A pixel hash never moves for a layout change: it
// is the witness that the frames a server sees are as they were. A
// stream hash may be re-recorded only by a change that says the
// encoder's decisions or the payload layout change and the decoded
// pixels do not — never to make an encoder change pass. Which commit
// produced which:
//
//   - goldenSyntheticPixels: 651ccd9, before the P-skip encoder
//     (9436157). It pins the decoder on the pan's pixels whatever the
//     encoder packs them with.
//   - goldenMH04LeftPixels/RightPixels: 70f38c8, the last commit with
//     the 16-bit inter layout, over the same twelve frames as
//     goldenMH04Left/Right.
//   - goldenMH04Left/Right, goldenSynthetic and goldenStatic:
//     re-recorded by the change that range-codes inter frames (kind 4,
//     from df576c0a…, 7ea5456a…, 968e2776… and ce883418…). It changed
//     the entropy stage and the decoder, and neither the encoder's
//     decisions nor the decoded pixels. Before it, the change after
//     70f38c8 had re-recorded them for kind 3's layout (a coded flag per
//     block, 8-bit residuals of the coded blocks only), and 9436157
//     goldenMH04Left/Right for two encoder decisions (blocks inside the
//     deadzone at a starting vector go unsearched; level-4 packing).
//   - goldenSynthetic is the witness that the search path is as it was
//     at 40af923: no block of the pan is inside the deadzone at either
//     starting vector, so every one is searched. Between 9436157 and
//     the range coder it was taken over the stream as DEFLATE level 6
//     would have packed the planes, which went with DEFLATE inter
//     frames.
const (
	goldenMH04Left        = "d67d7ab90e7d99ac4b2eb81a822f8d57709d8bacde5dffe952a0f99e18ad9612"
	goldenMH04Right       = "215c509c6b592ab802ae652fad100a03a8d6d1b2ed024be1108bcc01efb84e1e"
	goldenSynthetic       = "a095f0a80296096cf7466553ffb1ca89e698da43f3ce75e365fb993896b8a9d4"
	goldenSyntheticPixels = "db19b3178b9363006533f1827a4b034c2f4ee6bbfd78f3c262a723ed927cd727"
	goldenMH04LeftPixels  = "71894c6f851e1634209749567e066af3777d00aa485209ec0bd304e4320ffe7d"
	goldenMH04RightPixels = "5d5dfa88f3a497ca433dd6b144c2b17b704cfda2ea9c40d5729a0a9b015cdbfc"
	goldenStatic          = "ceb21b6a0aa84aa60a915413a8aa9b182e51c8c64bc600c096b9ecfd029a2349"
)

// streamHash folds a stream's payloads, length-prefixed, into one
// SHA-256, and checks on the way that every payload still decodes.
type streamHash struct {
	t   *testing.T
	h   hash.Hash
	px  hash.Hash // over the decoded pixels
	dec *Decoder
}

func newStreamHash(t *testing.T) *streamHash {
	return &streamHash{t: t, h: sha256.New(), px: sha256.New(), dec: NewDecoder()}
}

func (s *streamHash) add(payload []byte) {
	s.t.Helper()
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(payload)))
	s.h.Write(n[:])
	s.h.Write(payload)
	f, err := s.dec.Decode(payload)
	if err != nil {
		s.t.Fatalf("golden payload does not decode: %v", err)
	}
	s.px.Write(f.Pix)
}

func (s *streamHash) hex() string      { return hex.EncodeToString(s.h.Sum(nil)) }
func (s *streamHash) pixelHex() string { return hex.EncodeToString(s.px.Sum(nil)) }

// pan cuts the w×h window at (x, y) out of world and adds ±2 of
// per-frame noise, so the true block vectors are the pan and no SAD is
// exactly zero.
func pan(world *img.Gray, x, y, w, h int, rng *rand.Rand) *img.Gray {
	f := img.New(w, h)
	for r := 0; r < h; r++ {
		for c := 0; c < w; c++ {
			v := int(world.Pix[(y+r)*world.W+x+c]) + rng.Intn(5) - 2
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			f.Pix[r*w+c] = byte(v)
		}
	}
	return f
}

func TestGoldenStreams(t *testing.T) {
	// MH04 stereo, every second frame: the bench kernel's input.
	seq := dataset.MH04(camera.Stereo)
	encL, encR := NewEncoder(), NewEncoder()
	hl, hr := newStreamHash(t), newStreamHash(t)
	for i := 0; i < 12; i++ {
		left, right := seq.StereoFrame(2 * i)
		hl.add(encL.Encode(left))
		hr.add(encR.Encode(right))
	}

	// A synthetic pan of 5 px/frame across and 1 down: dimensions that
	// are not multiples of the block size, a global predictor and
	// border vectors that point outside the frame, a Reset mid-stream
	// and a resize.
	rng := rand.New(rand.NewSource(15))
	world := img.New(192, 80)
	for y := 0; y < world.H; y++ {
		for x := 0; x < world.W; x++ {
			// Coarse texture plus fine noise: something to lock on to at
			// every scale of the search.
			world.Pix[y*world.W+x] = byte(40*((x/6+y/5)%5) + rng.Intn(40))
		}
	}
	enc := NewEncoder()
	hs := newStreamHash(t)
	k := 0
	for ; k < 8; k++ {
		hs.add(enc.Encode(pan(world, 5*k, k, 37, 29, rng)))
	}
	enc.Reset()
	for ; k < 13; k++ {
		hs.add(enc.Encode(pan(world, 5*k, k, 37, 29, rng)))
	}
	for ; k < 19; k++ { // resize: forces an intra frame, then P-frames again
		hs.add(enc.Encode(pan(world, 5*k, k, 50, 33, rng)))
	}

	// A static scene under ±2 of noise: the case the searching encoder
	// had no cheap answer for. Every frame is within 4 of the intra, so
	// every inter block skips at the zero vector and a P payload is
	// little more than its header.
	enc = NewEncoder()
	hst := newStreamHash(t)
	for k := 0; k < 6; k++ {
		payload := enc.Encode(pan(world, 40, 20, 64, 48, rng))
		hst.add(payload)
		if k == 0 {
			continue
		}
		if len(payload) >= 200 {
			t.Errorf("static frame %d: P payload of %d bytes, want under 200", k, len(payload))
		}
		mvs, coded, _ := interPlanes(t, payload)
		for i, mv := range mvs {
			if mv != [2]int{} || coded[i] {
				t.Fatalf("static frame %d: block %d has vector %v, coded %v", k, i, mv, coded[i])
			}
		}
	}

	for _, c := range []struct{ name, got, want string }{
		{"MH04 left", hl.hex(), goldenMH04Left},
		{"MH04 right", hr.hex(), goldenMH04Right},
		{"MH04 left, decoded pixels", hl.pixelHex(), goldenMH04LeftPixels},
		{"MH04 right, decoded pixels", hr.pixelHex(), goldenMH04RightPixels},
		{"synthetic pan", hs.hex(), goldenSynthetic},
		{"synthetic pan, decoded pixels", hs.pixelHex(), goldenSyntheticPixels},
		{"static scene", hst.hex(), goldenStatic},
	} {
		t.Logf("%s: %s", c.name, c.got)
		if c.got != c.want {
			t.Errorf("%s stream changed: sha256 %s, want %s", c.name, c.got, c.want)
		}
	}
}
