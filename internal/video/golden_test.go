package video

import (
	"bytes"
	"compress/flate"
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

// The golden hashes pin the bitstream. A run prints the hashes it
// computed (`go test -run TestGoldenStreams -v ./internal/video/`), and
// a hash may be re-recorded only by a change whose issue says that the
// encoder's decisions change and the decoder's do not — never to make
// an encoder change pass. Which commit produced which:
//
//   - goldenSynthetic: 40af923, the commit before the fast motion search.
//     ISSUE 21 did not move it, and it is the witness that the search
//     path is as it was: no block of the pan is inside the deadzone at
//     either starting vector, so every one is searched. Since ISSUE 21
//     packs inter planes at DEFLATE level 4, the hash is taken over the
//     stream as level 6 packs the same planes (level6).
//   - goldenSyntheticPixels: 651ccd9, ISSUE 21's parent, before Encode
//     was touched. It is over the decoded pixels, so it pins the decoder
//     on parent-produced bytes whatever the encoder packs them with.
//   - goldenMH04Left/Right: re-recorded by ISSUE 21 (from 74f46a9a… and
//     e2c12a88…, both 40af923's), which made two encoder decisions and
//     touched no decoder: blocks already inside the deadzone at a
//     starting vector take that vector unsearched, and inter planes are
//     packed at level 4.
//   - goldenStatic: ISSUE 21, with the case.
const (
	goldenMH04Left        = "7bf0db3463e33eabe1949d9efc8de86ed78f6c6660d7809bfa33bdf5cf41acc8"
	goldenMH04Right       = "24003eada3bbf02e9b885a4affbdbc28dfc419eef30ea107946cb12b8f6cf862"
	goldenSynthetic       = "702e831726d7a9422d5ce8b580332a92d9431e26df28abd59f47e4bb44fb2327"
	goldenSyntheticPixels = "db19b3178b9363006533f1827a4b034c2f4ee6bbfd78f3c262a723ed927cd727"
	goldenStatic          = "0d89445aea789382e4fe5b48df536b30df2ed493fd3ba4fda5870fe7f4b57ec4"
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

// level6 repacks an inter payload's planes at flate.DefaultCompression,
// which was the encoder's level up to ISSUE 21, with the encoder's own
// two writes: the bytes that encoder produced for the same decisions.
// Intra payloads pass through.
func level6(t *testing.T, payload []byte) []byte {
	t.Helper()
	if IsIntra(payload) {
		return payload
	}
	raw, _, _, blocks := inflateInter(t, payload)
	buf := bytes.NewBuffer(append([]byte(nil), payload[:9]...))
	zw, _ := flate.NewWriter(buf, flate.DefaultCompression)
	zw.Write(raw[:2*blocks])
	zw.Write(raw[2*blocks:])
	zw.Close()
	return buf.Bytes()
}

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
		hs.add(level6(t, enc.Encode(pan(world, 5*k, k, 37, 29, rng))))
	}
	enc.Reset()
	for ; k < 13; k++ {
		hs.add(level6(t, enc.Encode(pan(world, 5*k, k, 37, 29, rng))))
	}
	for ; k < 19; k++ { // resize: forces an intra frame, then P-frames again
		hs.add(level6(t, enc.Encode(pan(world, 5*k, k, 50, 33, rng))))
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
		mvs, resid := interPlanes(t, payload)
		for i, mv := range mvs {
			if mv != [2]int{} {
				t.Fatalf("static frame %d: block %d has vector %v", k, i, mv)
			}
		}
		for i, r := range resid {
			if r != 0 {
				t.Fatalf("static frame %d: residual %d at pixel %d", k, r, i)
			}
		}
	}

	for _, c := range []struct{ name, got, want string }{
		{"MH04 left", hl.hex(), goldenMH04Left},
		{"MH04 right", hr.hex(), goldenMH04Right},
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
