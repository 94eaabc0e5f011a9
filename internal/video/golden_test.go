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

// The golden hashes pin the bitstream: they were recorded by running
// this test on the commit before the fast motion search landed
// (40af923, `go test -run TestGoldenStreams -v ./internal/video/`
// prints the hashes it computed) and must never be regenerated to make
// an encoder change pass — a change that moves them changes bytes on
// the wire.
const (
	goldenMH04Left  = "74f46a9a69b441196339c374833faac3a456d3bf2bfcb2cc1691ef1b8364f9a3"
	goldenMH04Right = "e2c12a88e88eccc60b21b773cfdb0fdfee43463833a6828094a857d13df5a576"
	goldenSynthetic = "702e831726d7a9422d5ce8b580332a92d9431e26df28abd59f47e4bb44fb2327"
)

// streamHash folds a stream's payloads, length-prefixed, into one
// SHA-256, and checks on the way that every payload still decodes.
type streamHash struct {
	t   *testing.T
	h   hash.Hash
	dec *Decoder
}

func newStreamHash(t *testing.T) *streamHash {
	return &streamHash{t: t, h: sha256.New(), dec: NewDecoder()}
}

func (s *streamHash) add(payload []byte) {
	s.t.Helper()
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(payload)))
	s.h.Write(n[:])
	s.h.Write(payload)
	if _, err := s.dec.Decode(payload); err != nil {
		s.t.Fatalf("golden payload does not decode: %v", err)
	}
}

func (s *streamHash) hex() string { return hex.EncodeToString(s.h.Sum(nil)) }

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

	for _, c := range []struct{ name, got, want string }{
		{"MH04 left", hl.hex(), goldenMH04Left},
		{"MH04 right", hr.hex(), goldenMH04Right},
		{"synthetic pan", hs.hex(), goldenSynthetic},
	} {
		t.Logf("%s: %s", c.name, c.got)
		if c.got != c.want {
			t.Errorf("%s stream changed: sha256 %s, want %s", c.name, c.got, c.want)
		}
	}
}
